// Command smoothbench is the repository's end-to-end benchmark: it
// starts smoothd in-process through its public constructors, drives it
// over loopback sockets from a seeded generator, and measures what
// crossed the egress link. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run builds its deployment;
// setup_s is the median.
const setupRepeats = 15

// heldOutSeed is kept out of every run made while writing the
// benchmark, for checking later claims on inputs nobody tuned against.
const heldOutSeed = 7919

// unbounded are end-to-end figures the untraced run prints in its table
// but leaves out of its final JSON line, whose metrics are all held to a
// regression bound; the traced run records them, unbounded, from its
// untraced pass. failed_frac is 0 on every correct run (the line
// carries the same count as "failed"). admit_ms rests on one admission
// per stream, about 40 per run on the paced workloads: too few to hold
// still. The p99s and stream_ms follow the speed of a shared host on
// burst-quorum2, where they moved by up to 0.29 (interquartile range
// over median) between sets of runs.
var unbounded = map[string]bool{
	"failed_frac":  true,
	"admit_ms.p50": true, "admit_ms.p99": true,
	"stream_ms.p50": true, "stream_ms.p99": true,
	"picture_ms.p99": true, "delay_s.p99": true,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smoothbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long each measured pass offers load")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and tracing overhead")
	workdir := fs.String("workdir", ".bench_build", "directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "smoothbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := freshStateDir(*workdir, w.name)
	if err != nil {
		fmt.Fprintf(stderr, "smoothbench: %v\n", err)
		return 1
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	meta, _ := json.Marshal(machineMeta(w, *seed, *traced))
	fmt.Fprintf(out, "# meta %s\n", meta)

	var (
		metrics report
		errs    []string
		o       outcome
	)
	if *traced == 0 {
		p, setupTimes, err := runPass(w, *seed, dir, false, setupRepeats, *seconds)
		if err != nil {
			fmt.Fprintf(stderr, "smoothbench: %v\n", err)
			return 1
		}
		metrics = p.endToEnd(setupTimes)
		errs, o = p.errs, p.outcome()
		printReport(out, w.name+" end-to-end (untraced)", metrics)
	} else {
		var tracePath string
		metrics, errs, o, tracePath, err = tracedRun(out, w, *seed, dir, *workdir, *seconds)
		if err != nil {
			fmt.Fprintf(stderr, "smoothbench: %v\n", err)
			return 1
		}
		printReport(out, w.name+" per-layer (traced)", metrics)
		fmt.Fprintf(out, "# spans written to %s\n", tracePath)
	}
	for _, e := range errs {
		fmt.Fprintf(out, "# VIOLATION %s\n", e)
	}
	line := finalLine{Correct: len(errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		if *traced == 1 || !unbounded[m.Name] {
			line.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", b)
	if len(errs) > 0 {
		out.Flush()
		fmt.Fprintf(stderr, "smoothbench: correctness gate tripped: %d violation(s)\n", len(errs))
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runPass sets the workload up `setups` times (keeping the last
// deployment, timing each), runs one measured pass on it and tears it
// down. A run makes at most one traced and one untraced pass, which
// name their journal directories.
func runPass(w *workload, seed int64, dir string, traced bool, setups int, seconds float64) (*pass, []float64, error) {
	var (
		e     *env
		times []float64
		tr    *tracer
	)
	label := "untraced"
	if traced {
		tr, label = newTracer(), "traced"
	}
	for i := 0; i < setups; i++ {
		runtime.GC() // start every timed setup from the same heap state
		t0 := time.Now()
		var err error
		e, err = setup(w, seed, filepath.Join(dir, fmt.Sprintf("%s-%d", label, i)), tr, e)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setups-1 {
			e.teardown()
		}
	}
	p := &pass{e: e}
	p.run(seconds)
	p.sample() // counters read before teardown
	e.teardown()
	return p, times, nil
}

// freshStateDir empties the directory the workload's journals live in
// and syncs its parent, so the file system commits (and may discard)
// the previous run's freed blocks before anything is timed.
func freshStateDir(workdir, name string) (string, error) {
	parent := filepath.Join(workdir, "state")
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.Open(parent)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return "", fmt.Errorf("syncing %s: %w", parent, err)
	}
	return dir, nil
}

func printReport(out io.Writer, title string, r report) {
	fmt.Fprintf(out, "# %s\n", title)
	fmt.Fprintf(out, "# %-44s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range r {
		fmt.Fprintf(out, "# %-44s %14.6g %-6s %8d %s\n", m.Name, m.Value, m.Unit, m.N, m.Flag)
	}
}

// meta is the machine and build metadata printed with every result, so
// runs from different machines are never compared as if equal.
type meta struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Trace       int    `json:"trace"`
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

func machineMeta(w *workload, seed int64, traced int) meta {
	m := meta{
		Workload: w.name, Seed: seed, HeldOutSeed: heldOutSeed, Trace: traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
