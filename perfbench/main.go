// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a wall-clock budget, checks the program's outputs, and
// prints one JSON result as the last line of standard output:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured in a second half
// of the budget with spans recorded around every call into a layer, and
// writes those spans as a Chrome trace under .bench_build/. README.md
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wavepim/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	budget time.Duration
	trace  bool
}

// report is a workload's outcome. A non-nil checkErr means an operation
// or an output check failed: the run reports the failure and no numbers.
type report struct {
	attempted, failed int
	checkErr          error
	e2e               map[string]metric // untraced
	layers            map[string]metric // traced half only
}

type workload struct {
	run func(runConfig) (*report, error)
	// setup, for workloads whose set-up pays per-process cold costs,
	// performs the set-up once in a fresh process and returns its
	// duration in seconds.
	setup func(seed uint64) (float64, error)
}

var workloads = map[string]workload{
	"paper-sweep":  {run: runPaperSweep},
	"gate-level":   {run: runGateLevel, setup: setupGateLevel},
	"cluster-jobs": {run: runClusterJobs, setup: setupClusterJobs},
}

// manifest is the part of BENCHMARK.json (at the repository root) that
// names the metrics a run must report.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// reported checks a workload's metrics against the manifest's list:
// every listed metric appears with its unit, and nothing else does.
// Per-layer metrics a workload does not measure (its run never reaches
// the layer, or the benchmark cannot separate the layer's time there)
// are reported as 0.
func reported(got map[string]metric, want []struct{ Name, Unit string }, zeroFill bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok && zeroFill:
			m = metric{Unit: w.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %q not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %q in %s, manifest says %s", w.Name, m.Unit, w.Unit)
		}
		out[w.Name] = m
	}
	for k := range got {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %q is not in BENCHMARK.json", k)
		}
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "paper-sweep | gate-level | cluster-jobs")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measuring budget in seconds")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	setupOnly := flag.Bool("setup-only", false, "perform the workload's set-up once and print its seconds")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *setupOnly {
		if w.setup == nil {
			fail(fmt.Errorf("%s has no per-process set-up", *name))
		}
		sec, err := w.setup(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(strconv.FormatFloat(sec, 'g', -1, 64))
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0|1"))
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	man, err := readManifest()
	if err != nil {
		fail(err)
	}
	rep, err := w.run(cfg)
	if err != nil {
		fail(err)
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	switch {
	case rep.checkErr != nil:
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", rep.checkErr)
	case rep.failed > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", rep.failed, rep.attempted)
	default:
		res.Correct = true
		if cfg.trace {
			res.Metrics, err = reported(rep.layers, man.PerLayer, true)
		} else {
			res.Metrics, err = reported(rep.e2e, man.EndToEnd, false)
		}
		if err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// childSetups performs the workload's set-up once in each of n fresh
// child processes and returns their durations, so every sample pays the
// cold costs a user pays once per process (the plan cache is
// process-wide).
func childSetups(workload string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// spanLog records the traced run's spans against one wall-clock origin.
type spanLog struct {
	t0 time.Time
	tr *obs.Tracer
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), tr: obs.NewTracer()} }

// add records [start, end) on track (one lane per client or layer).
func (s *spanLog) add(name, cat string, start, end time.Time, track int) {
	s.tr.Span(name, cat, start.Sub(s.t0).Seconds(), end.Sub(start).Seconds(), track)
}

// write saves the spans as a Chrome trace under .bench_build/.
func (s *spanLog) write(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	if err := s.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitBudget gives a run's untraced and traced budgets and the fewest
// passes each measures.
func splitBudget(cfg runConfig) (untraced, traced time.Duration, least int) {
	if !cfg.trace {
		return cfg.budget, 0, minPasses
	}
	return cfg.budget / 2, cfg.budget - cfg.budget/2, 2
}
