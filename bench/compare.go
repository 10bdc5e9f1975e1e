package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRows loads a result file: one JSON row per line.
func readRows(path string) ([]resultRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []resultRow
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row resultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// sample collects one metric's values over the rows of a workload that
// count: end-to-end, correct, and not taken on a noisy host.
func sample(rows []resultRow, workload, metric string) []float64 {
	var xs []float64
	for _, r := range rows {
		if r.Workload != workload || r.Traced || !r.Correct || r.Host.NoisyHost {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// relSpread is the inter-quartile range as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// compareFiles prints, per workload × end-to-end metric, both sets'
// medians and inter-quartile ranges, how much worse B's median is than
// A's, the metric's bound and a verdict: within, outside, or unresolved
// when either set's own spread is wider than the bound.  It reports
// whether any pairing is outside.
func compareFiles(w io.Writer, pathA, pathB string) (outside bool, err error) {
	a, err := readRows(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRows(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-15s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "worse", "bound", "verdict")
	for _, spec := range workloads {
		for _, m := range endToEnd {
			xa, xb := sample(a, spec.name, m.name), sample(b, spec.name, m.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := 0.0 // share of A's median by which B is worse; negative: better
			if ma != 0 && mb != ma {
				worse = (mb - ma) / ma
				if m.better == "higher" {
					worse = -worse
				}
			}
			sa, sb := relSpread(xa), relSpread(xb)
			verdict := "within"
			switch {
			case worse > m.bound:
				verdict = "outside"
				outside = true
			case sa > m.bound || sb > m.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-15s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				spec.name, m.name, ma, 100*sa, mb, 100*sb, 100*worse, 100*m.bound, verdict)
		}
	}
	return outside, nil
}
