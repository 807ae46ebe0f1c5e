package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/experiments"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/wavepim"
)

// paper-sweep: the analytic paper reproduction. wavepim.Run's host time
// is dominated by the interconnect contention loop
// (sim.ExecTransfers -> intercon.ScheduleBatchBusy), so this workload
// carries the interconnect and engine layers. It calls MakePlan/RunPlan
// directly because experiments.Fig11And12 memoises results process-wide.

type paperCell struct {
	bench opcount.Benchmark
	cfg   chip.Config
}

func (c paperCell) fabric() string { return c.cfg.Interconnect.String() }

// paperCells is the Figure 11/12 grid (six benchmarks x four capacities,
// H-tree) followed by the six benchmarks on every fabric of the 2 GB chip.
func paperCells() ([]paperCell, error) {
	var cells []paperCell
	for _, b := range opcount.AllBenchmarks() {
		for _, cfg := range chip.AllConfigs() {
			cells = append(cells, paperCell{b, cfg})
		}
	}
	for _, name := range intercon.Names() {
		kind, err := chip.ParseInterconnect(name)
		if err != nil {
			return nil, err
		}
		cfg := chip.Config2GB()
		cfg.Interconnect = kind
		for _, b := range opcount.AllBenchmarks() {
			cells = append(cells, paperCell{b, cfg})
		}
	}
	return cells, nil
}

// planCells is paper-sweep's set-up: one plan per cell.
func planCells(cells []paperCell) ([]wavepim.Plan, error) {
	plans := make([]wavepim.Plan, len(cells))
	for i, c := range cells {
		p, err := wavepim.MakePlan(c.bench, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("plan %s on %s/%s: %w", c.bench.Name(), c.cfg.Name, c.fabric(), err)
		}
		plans[i] = p
	}
	return plans, nil
}

// Planning every cell takes tens of microseconds, too short to time
// alone, so one set-up sample is the seconds per planning of every cell
// averaged over a batch of paperSetupBatchPlans plannings (milliseconds
// per batch). Batches are timed before the first pass and again after
// every pass, so the median covers the whole run, not one instant of it.
const (
	paperSetupBatches        = 21
	paperSetupBatchesPerPass = 10
	paperSetupBatchPlans     = 200
)

// timePlanning returns the plans and n set-up samples.
func timePlanning(cells []paperCell, n int) ([]wavepim.Plan, []float64, error) {
	var plans []wavepim.Plan
	var samples []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		for i := 0; i < paperSetupBatchPlans; i++ {
			p, err := planCells(cells)
			if err != nil {
				return nil, nil, err
			}
			plans = p
		}
		samples = append(samples, time.Since(t0).Seconds()/paperSetupBatchPlans)
	}
	return plans, samples, nil
}

// paperLayers accumulates one traced pass's per-layer counts.
type paperLayers struct {
	hostNs        map[string]float64 // RunPlan host time per fabric
	transfers     map[string]int64   // simulated transfers per fabric
	backpressured int64
	instrPriced   int64
	allocBytes    uint64
}

func runPaperSweep(cfg runConfig) (*report, error) {
	cells, err := paperCells()
	if err != nil {
		return nil, err
	}
	plans, setup, err := timePlanning(cells, paperSetupBatches)
	if err != nil {
		return nil, err
	}

	order := cellOrder(cfg.seed, len(cells))
	opt := wavepim.DefaultOptions()
	results := make([]wavepim.Result, len(cells))
	rep := &report{}
	var firstDigest string
	var spans *spanLog
	var layers []paperLayers

	onePass := func(traced bool) error {
		var pl paperLayers
		if traced {
			pl = paperLayers{hostNs: map[string]float64{}, transfers: map[string]int64{}}
		}
		for _, i := range order {
			rep.attempted++
			var a0 uint64
			var t0 time.Time
			if traced {
				a0, t0 = totalAlloc(), time.Now()
			}
			res, err := wavepim.RunPlan(plans[i], opt)
			if err != nil {
				rep.failed++
				return fmt.Errorf("run %s: %w", plans[i], err)
			}
			if traced {
				t1 := time.Now()
				pl.allocBytes += totalAlloc() - a0
				f := cells[i].fabric()
				pl.hostNs[f] += float64(t1.Sub(t0).Nanoseconds())
				pl.transfers[f] += res.Intercon.Transfers
				pl.backpressured += res.Intercon.Backpressured
				pl.instrPriced += res.InstrPerStage
				spans.add(cells[i].bench.Name()+"/"+cells[i].cfg.Name+"/"+f, "wavepim.RunPlan", t0, t1, 1)
			}
			results[i] = res
		}
		if traced {
			layers = append(layers, pl)
		}
		return nil
	}

	// after compares each pass's simulated statistics with the first
	// pass's; the first is compared with the golden digest after timing.
	after := func(int) error {
		d, err := resultsDigest(results)
		if err != nil {
			return err
		}
		if firstDigest == "" {
			firstDigest = d
		} else if d != firstDigest {
			return fmt.Errorf("simulated statistics changed between passes: %s vs %s", d, firstDigest)
		}
		_, more, err := timePlanning(cells, paperSetupBatchesPerPass)
		setup = append(setup, more...)
		return err
	}

	// A failed operation or check ends the run: it reports the failure
	// and no numbers.
	untracedBudget, tracedBudget, least := splitBudget(cfg)
	untraced, err := runPasses(untracedBudget, least, func(int) error { return onePass(false) }, after)
	var traced []pass
	if err == nil && cfg.trace {
		spans = newSpanLog()
		traced, err = runPasses(tracedBudget, least, func(int) error { return onePass(true) }, after)
	}
	if err == nil {
		err = checkPaperGolden(firstDigest)
	}
	if err == nil {
		err = checkTopologySweep()
	}
	if rep.checkErr = err; err != nil {
		return rep, nil
	}
	rep.e2e = endToEnd(setup, untraced, untraced, passMs(untraced))
	if cfg.trace {
		rep.layers = paperLayerMetrics(layers)
		rep.layers["bench.trace_overhead_s"] = metric{median(walls(traced)) - median(walls(untraced)), "s"}
		if err := spans.write("paper-sweep", cfg.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func paperLayerMetrics(ls []paperLayers) map[string]metric {
	out := map[string]metric{}
	for _, f := range intercon.Names() {
		out["intercon.ns_per_transfer."+f] = metric{median(perPass(ls, func(l paperLayers) float64 {
			return l.hostNs[f] / float64(l.transfers[f])
		})), "ns"}
	}
	out["intercon.transfers"] = metric{median(perPass(ls, func(l paperLayers) float64 {
		var n int64
		for _, t := range l.transfers {
			n += t
		}
		return float64(n)
	})), "count"}
	out["intercon.backpressured"] = metric{median(perPass(ls, func(l paperLayers) float64 { return float64(l.backpressured) })), "count"}
	out["sim.instr_priced"] = metric{median(perPass(ls, func(l paperLayers) float64 { return float64(l.instrPriced) })), "count"}
	out["wavepim.runplan_alloc_mb"] = metric{median(perPass(ls, func(l paperLayers) float64 { return float64(l.allocBytes) / mib })), "MB"}
	return out
}

// resultsDigest hashes every simulated statistic of every cell (times,
// energies, breakdown, stage timeline, intercon report with its
// per-switch ledgers) in canonical cell order.
func resultsDigest(rs []wavepim.Result) (string, error) {
	b, err := json.Marshal(rs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// goldenPath holds the simulated-statistics digests every run must
// reproduce; they do not depend on the seed.
var goldenPath = filepath.Join("perfbench", "golden.json")

type golden struct {
	PaperSweep       string `json:"paper_sweep_results_sha256"`
	GateTimeline     string `json:"gate_level_timeline_digest"`
	GateInstructions int64  `json:"gate_level_instructions_per_step"`
}

func readGolden() (golden, error) {
	var g golden
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(b, &g)
}

func checkPaperGolden(digest string) error {
	g, err := readGolden()
	if err != nil {
		return err
	}
	if digest != g.PaperSweep {
		return fmt.Errorf("paper-sweep statistics digest %s, golden %s", digest, g.PaperSweep)
	}
	return nil
}

// checkTopologySweep regenerates the committed six-fabric sweep and
// compares it byte for byte.
func checkTopologySweep() error {
	want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "toposweep_golden.json"))
	if err != nil {
		return err
	}
	r, err := experiments.TopologySweep(chip.Config512MB(), 4)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("topology sweep differs from toposweep_golden.json")
	}
	return nil
}
