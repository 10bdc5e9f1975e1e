// Command bench is the end-to-end benchmark of the Aladdin scheduler
// service: it generates a full-scale workload from a seed, starts the
// real aladdin-server binary, drives it over loopback HTTP from one
// closed-loop client and reports what a user of the service sees
// (-trace 0), or replays the same requests in process with a span at
// every module boundary and reports where the time goes (-trace 1).
// See README.md in this directory.
//
//	go run -C bench . -workload churn_plain
//	go run -C bench . -workload fill_tight -trace 1
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: churn_plain | churn_sharded | fill_tight | ops_mixed (default: all four, one after another)")
		seed     = flag.Int64("seed", 42, "seed of the op sequence (the generated universe is fixed)")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the timed phase at the seed commit's speed; sets the fixed op count")
		traced   = flag.Int("trace", 0, "1: the in-process traced run and the per-layer metrics; 0: the real server and the end-to-end metrics")
		out      = flag.String("out", "", "result file, one JSON row appended per workload run (default bench/out/results.jsonl)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		outside, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if outside {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	specs := make([]*workloadSpec, 0, len(workloads))
	if *workload == "" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else {
		spec, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, spec)
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	e, err := newEnv(root, filepath.Join(root, "bench", "out"))
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(e.outDir, "results.jsonl")
	}
	bin := filepath.Join(e.tmpDir, "aladdin-server")
	if *traced == 0 {
		if err := buildServer(root, bin); err != nil {
			fatal(err)
		}
	}
	u, err := newUniverse(fullScale)
	if err != nil {
		fatal(err)
	}

	final := finalLine{Correct: true, Metrics: make(map[string]metricValue)}
	for _, spec := range specs {
		var row *resultRow
		if *traced == 1 {
			row, err = runTraced(e, tracedSpec(spec), u, *seed, *seconds, spec.units(*seconds))
		} else {
			launch := binaryLauncher(bin, filepath.Join(e.tmpDir, "server-"+spec.name+".log"))
			row, err = runE2E(e, launch, spec, u, *seed, *seconds, spec.units(*seconds))
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", spec.name, err))
		}
		if err := appendRow(*out, row); err != nil {
			fatal(err)
		}
		final.Attempted += row.OpsAttempted
		final.Failed += row.OpsFailed
		if !row.Correct {
			// No numbers for a workload whose outputs are wrong.
			final.Correct = false
			fmt.Fprintf(os.Stderr, "%s: INCORRECT: %d of %d ops failed\n", spec.name, row.OpsFailed, row.OpsAttempted)
			for _, f := range row.Failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			continue
		}
		printRow(row)
		for name, v := range row.Metrics {
			if len(specs) > 1 {
				name = spec.name + "/" + name
			}
			final.Metrics[name] = v
		}
	}
	if !final.Correct {
		final.Metrics = map[string]metricValue{}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printRow prints one `workload/metric value unit` line per metric.
func printRow(row *resultRow) {
	names := make([]string, 0, len(row.Metrics))
	for name := range row.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s/ops_attempted %d count\n%s/ops_failed %d count\n", row.Workload, row.OpsAttempted, row.Workload, row.OpsFailed)
	for _, name := range names {
		v := row.Metrics[name]
		fmt.Printf("%s/%s %.6g %s\n", row.Workload, name, v.Value, v.Unit)
	}
}

// appendRow adds one JSON line to the result file.
func appendRow(path string, row *resultRow) error {
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
