package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is stamped on every result row.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Load1      float64 `json:"load1"` // 1-minute load average at start
	// BusyCores is how many cores' worth of CPU other processes used
	// during 300 ms before the run; above a quarter of the cores the run
	// is marked NoisyHost and -compare leaves it out of medians.  (The
	// load average cannot serve: after a back-to-back series it still
	// carries the previous run and would flag every row.)
	BusyCores float64 `json:"busy_cores"`
	NoisyHost bool    `json:"noisy_host"`
}

// busyJiffies reads the machine's cumulative non-idle CPU time.
func busyJiffies() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	busy := 0.0
	for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, err
		}
		if i != 3 && i != 4 {
			busy += v
		}
	}
	return busy, nil
}

func readHost(root string) hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // 0 on a malformed file: not noisy
		}
	}
	if j0, err := busyJiffies(); err == nil {
		const sample = 300 * time.Millisecond
		time.Sleep(sample)
		if j1, err := busyJiffies(); err == nil {
			h.BusyCores = (j1 - j0) / 100 / sample.Seconds() // USER_HZ is 100
			h.NoisyHost = h.BusyCores > 0.25*float64(h.NProc)
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// findRoot walks up from the working directory to the aladdin module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module aladdin\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the aladdin module: no go.mod with `module aladdin` above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/aladdin-server from the checkout.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aladdin-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/aladdin-server: %w\n%s", err, out)
	}
	return nil
}

// target is a server under measurement: where it listens, which
// process's CPU and memory are its own, and how to end it.
type target struct {
	base string
	pid  int
	stop func()
}

// launcher starts one server on the trace file.
type launcher func(traceFile string) (*target, error)

// binaryLauncher launches the real binary, logging to logPath.
func binaryLauncher(bin, logPath string) launcher {
	return func(traceFile string) (*target, error) { return spawnServer(bin, traceFile, logPath) }
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawnServer starts the binary on a free loopback port and returns
// once GET /tenants answers.  The default tenant is deliberately tiny
// (64 machines): the measured tenant is created over HTTP.
func spawnServer(bin, traceFile, logPath string) (*target, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-trace", traceFile, "-machines", "64", "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness that is killed must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	// stop ends the server and waits for it: SIGTERM first (the server
	// drains and exits), SIGKILL if that takes more than five seconds.
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
		logf.Close()
	}
	t := &target{base: "http://" + addr, pid: cmd.Process.Pid, stop: stop}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(t.base + "/tenants")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				http.DefaultClient.CloseIdleConnections()
				return t, nil
			}
		}
		select {
		case <-exited:
			stop()
			return nil, fmt.Errorf("aladdin-server exited during start-up (%v); see %s", waitErr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			stop()
			return nil, fmt.Errorf("aladdin-server not ready after 60 s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime reads the process's user+system CPU time from /proc.
func (t *target) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", t.pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssMB reads the process's resident set size.
func (t *target) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", t.pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc statm line %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
