package main

import (
	"fmt"
	"math"
	"time"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/nor"
	"wavepim/internal/wavepim"
)

// gate-level: a functional acoustic Session whose FP32 arithmetic runs
// gate by gate through the bit-sliced NOR slab substrate, one engine
// worker, on the 8-element mesh. Nearly all host time is in
// nor.(*SlabCircuit) and almost none in the interconnect, so this
// workload carries the NOR layer. Each pass is one time-step of a fresh
// session (a plan-cache hit) loaded with the same state, so every pass
// does identical work: the slab masks lanes by their data, so even the
// RK auxiliaries a previous step left behind would change the gate count.

const (
	gateDt             = 1e-3
	gateRefine, gateNp = 1, 4
	// A cold set-up takes under a millisecond and its time depends on
	// what the host is doing at the moment, so set-up is sampled in
	// fresh processes before the first pass and again after every pass:
	// the median then covers the whole run, not one instant of it.
	gateSetupChildren        = 20
	gateSetupChildrenPerPass = 4
)

var gateMat = material.Acoustic{Kappa: 2.25, Rho: 1}

func gateSession(m *mesh.Mesh, slab bool) (*wavepim.Session, error) {
	opts := []wavepim.Option{
		wavepim.WithMesh(m),
		wavepim.WithDt(gateDt),
		wavepim.WithAcousticMaterial(gateMat),
		wavepim.WithWorkers(1),
	}
	if slab {
		opts = append(opts, wavepim.WithNORSlab(nor.DefaultSlabWords))
	}
	return wavepim.NewSession(opts...)
}

// gateSetup is gate-level's set-up: a cold session build (plan-cache
// miss in a fresh process) plus loading the seeded state.
func gateSetup(seed uint64) (s *wavepim.Session, q0 *dg.AcousticState, buildSec, setupSec float64, err error) {
	m := mesh.New(gateRefine, gateNp, true)
	t0 := time.Now()
	s, err = gateSession(m, true)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	buildSec = time.Since(t0).Seconds()
	q0 = gateState(seed, m, gateMat)
	s.Acoustic().Load(q0)
	return s, q0, buildSec, time.Since(t0).Seconds(), nil
}

func setupGateLevel(seed uint64) (float64, error) {
	_, _, _, sec, err := gateSetup(seed)
	return sec, err
}

// gateOutcome is what one pass must reproduce exactly.
type gateOutcome struct {
	state    []float64
	timeline uint64
	norEvals int64
	instrs   int64
}

func readGateOutcome(s *wavepim.Session) gateOutcome {
	q := dg.NewAcousticState(s.Acoustic().Mesh)
	s.Acoustic().ReadState(q)
	var flat []float64
	for _, sl := range q.Slices() {
		flat = append(flat, sl...)
	}
	eng := s.Engine()
	return gateOutcome{state: flat, timeline: eng.TimelineDigest(), norEvals: eng.NORGateStats().NOREvals, instrs: eng.InstrCount}
}

func (a gateOutcome) diff(b gateOutcome) error {
	if a.timeline != b.timeline || a.norEvals != b.norEvals || a.instrs != b.instrs {
		return fmt.Errorf("timeline %016x/%016x, NOR evals %d/%d, instructions %d/%d",
			a.timeline, b.timeline, a.norEvals, b.norEvals, a.instrs, b.instrs)
	}
	if len(a.state) != len(b.state) {
		return fmt.Errorf("state sizes %d/%d", len(a.state), len(b.state))
	}
	for i := range a.state {
		if math.Float64bits(a.state[i]) != math.Float64bits(b.state[i]) {
			return fmt.Errorf("state value %d: %v vs %v", i, a.state[i], b.state[i])
		}
	}
	return nil
}

func runGateLevel(cfg runConfig) (*report, error) {
	s, q0, buildSec, setupSec, err := gateSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	misses := wavepim.PlanCacheSnapshot().Misses
	children, err := childSetups("gate-level", cfg.seed, gateSetupChildren)
	if err != nil {
		return nil, err
	}
	setup := append([]float64{setupSec}, children...)

	rep := &report{}
	var first *gateOutcome
	// after checks the pass against the first one and prepares the next
	// pass's session, outside the measurement.
	after := func(int) error {
		got := readGateOutcome(s)
		if first == nil {
			first = &got
		} else if err := got.diff(*first); err != nil {
			return fmt.Errorf("pass differs from the first: %w", err)
		}
		more, err := childSetups("gate-level", cfg.seed, gateSetupChildrenPerPass)
		if err != nil {
			return err
		}
		setup = append(setup, more...)
		if s, err = gateSession(s.Acoustic().Mesh, true); err != nil {
			return err
		}
		s.Acoustic().Load(q0)
		return nil
	}
	var spans *spanLog
	var stepAlloc []float64
	step := func(traced bool) error {
		rep.attempted++
		if !traced {
			s.Step()
			return nil
		}
		a0, t0 := totalAlloc(), time.Now()
		s.Step()
		t1 := time.Now()
		stepAlloc = append(stepAlloc, float64(totalAlloc()-a0)/mib)
		spans.add("Session.Step", "wavepim.Session", t0, t1, 1)
		return nil
	}

	// A failed check ends the run: it reports the failure and no numbers.
	untracedBudget, tracedBudget, least := splitBudget(cfg)
	untraced, err := runPasses(untracedBudget, least, func(int) error { return step(false) }, after)
	var traced []pass
	if err == nil && cfg.trace {
		spans = newSpanLog()
		traced, err = runPasses(tracedBudget, least, func(int) error { return step(true) }, after)
	}
	if err == nil {
		err = checkGateReference(*first, q0)
	}
	if rep.checkErr = err; err != nil {
		return rep, nil
	}
	rep.e2e = endToEnd(setup, untraced, untraced, passMs(untraced))
	if cfg.trace {
		stepSec := median(walls(traced))
		rep.layers = map[string]metric{
			"nor.gate_evals":            {float64(first.norEvals), "count"},
			"nor.ns_per_gate_eval":      {stepSec * 1e9 / float64(first.norEvals), "ns"},
			"sim.step_ms":               {stepSec * 1e3, "ms"},
			"sim.instr_count":           {float64(first.instrs), "count"},
			"sim.step_alloc_mb":         {median(stepAlloc), "MB"},
			"wavepim.session_build_ms":  {buildSec * 1e3, "ms"},
			"wavepim.plan_cache_misses": {float64(misses), "count"},
			"bench.trace_overhead_s":    {stepSec - median(walls(untraced)), "s"},
		}
		if err := spans.write("gate-level", cfg.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkGateReference replays the step on a host-float session of the
// same spec: the NOR substrate must give the same state bit for bit and
// the same simulated timeline, and the timeline and instruction count
// must match the committed golden values (the gate count depends on the
// seeded data, so it is only compared between passes).
func checkGateReference(slab gateOutcome, q0 *dg.AcousticState) error {
	ref, err := gateSession(mesh.New(gateRefine, gateNp, true), false)
	if err != nil {
		return err
	}
	ref.Acoustic().Load(q0)
	ref.Step()
	want := readGateOutcome(ref)
	want.norEvals = slab.norEvals // the host-float path evaluates no gates
	if err := slab.diff(want); err != nil {
		return fmt.Errorf("NOR slab vs host float: %w", err)
	}
	g, err := readGolden()
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%016x", slab.timeline); got != g.GateTimeline || slab.instrs != g.GateInstructions {
		return fmt.Errorf("gate-level timeline %s, instructions %d; golden %s, %d",
			got, slab.instrs, g.GateTimeline, g.GateInstructions)
	}
	return nil
}
