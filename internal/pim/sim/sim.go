// Package sim executes PIM instruction streams on a chip model, producing
// time, energy, and per-phase breakdowns. It is the reproduction's stand-in
// for the paper's cycle-accurate simulator (NVSim + FloatPIM adaptation):
// digital-PIM timing is deterministic per instruction — every arithmetic
// instruction is a fixed bit-serial NOR sequence, every transfer a routed
// switch path — so accumulating per-instruction costs at instruction
// granularity is equivalent to cycle-accurate simulation for these
// workloads.
//
// The engine has two modes. In timing mode it only accounts cost. In
// functional mode it additionally performs every data movement and
// arithmetic operation on real float32 cell contents, which lets tests
// check a PIM-executed dG time-step against the internal/dg reference
// solver node for node.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/nor"
	"wavepim/internal/pim/xbar"
)

// Phase is one scheduled span of work.
type Phase struct {
	Name    string
	Kind    string // "blocks", "transfer", "dram", "host", "compose"
	Start   float64
	Dur     float64
	EnergyJ float64
}

// End returns the phase end time.
func (p Phase) End() float64 { return p.Start + p.Dur }

// RowTransfer is an inter-block data movement at word granularity: Words
// 32-bit words from (SrcBlock, SrcRow, SrcOff) to (DstBlock, DstRow,
// DstOff), routed through the interconnect.
type RowTransfer struct {
	SrcBlock, SrcRow, SrcOff int
	DstBlock, DstRow, DstOff int
	Words                    int
}

// Engine executes work on a chip and accumulates a timeline.
type Engine struct {
	Chip       *chip.Chip
	Functional bool
	// Workers > 1 fans the per-block work of ExecBlocks across that many
	// goroutines — the software mirror of the chip's defining property that
	// blocks execute in parallel. Results, timeline, and energy are
	// bit-identical to the serial path: per-block contributions are merged
	// in ascending block order regardless of completion order. 0 or 1 keeps
	// the serial path.
	Workers int
	// Obs, when non-nil, receives per-phase spans and counters (phase
	// durations and energies, instruction-class counts, per-block
	// energies, worker-pool occupancy). Nil disables all instrumentation;
	// the nil path is the uninstrumented hot path.
	Obs *obs.Sink

	// SlabWords > 0 routes every functional arithmetic instruction
	// (OpAdd/OpSub/OpMul) through the K-word bit-sliced NOR slab
	// substrate instead of host floating point: operands are gathered
	// into SlabWords*64-lane slabs and computed by the gate-level
	// IEEE-754 programs of internal/pim/nor, with gate activity
	// accumulated in NORGateStats. Results are bit-identical to the
	// host-float path (the substrate's fidelity is property-tested
	// against hardware floats); timing and energy charging are
	// unchanged. 0 keeps the host-float fast path. Timing-only engines
	// ignore the setting.
	SlabWords int
	// norUnits pools one gather/compute unit per in-flight instruction,
	// so the slab path stays allocation-free under the worker pool.
	norUnits sync.Pool
	// norEvals/norSets/norResets accumulate gate-level activity from the
	// slab path (atomically: block programs run concurrently).
	norEvals, norSets, norResets int64

	// Log, when non-nil, receives structured events: one per recovery
	// rung firing (with block, rung, and simulated-time cost). Nil is
	// the silent path. Rung events are emitted from the deterministic
	// post-merge section, so their order is stable across worker counts.
	Log *eventlog.Logger

	// Faults, when non-nil, enables the fault-injection recovery ladder
	// in functional mode: after every block phase the engine scrubs
	// (ECC), verify-retries failing programs, and remaps blocks that
	// stay uncorrectable onto SparePool. Nil is the golden path.
	Faults *fault.Injector
	// SparePool lists reserved physical block ids, consumed in order by
	// spare-block remapping.
	SparePool  []int
	sparesUsed int
	// pendingFault queues the ECC/retry/remap phases produced inside a
	// block phase; Sequence/Parallel drain it right after the triggering
	// phase commits, so recovery costs land on the simulated timeline.
	pendingFault []Phase

	Timeline    []Phase
	TotalEnergy float64
	clock       float64

	// ctx, when set via SetContext, makes ExecBlocks cancellable; the
	// first cancellation error is latched in err (see Err).
	ctx context.Context
	err error

	// Instruction statistics.
	InstrCount int64
	TransferCt int64
	DRAMBytes  int64

	// chipTree routes cross-tile transfers: the same topology kind as the
	// tiles, instantiated over the chip's tiles (the chip-level counterpart
	// of the per-tile networks).
	chipTree intercon.Topology

	// Interconnect congestion accounting — the observables of the
	// estimate -> occupy -> backpressure contention loop, aggregated over
	// every scheduled batch of the run. tileSwitchBusy sums per-local-
	// switch busy seconds across all tiles (every tile shares one topology
	// shape); chipSwitchBusy does the same for the chip-level network.
	tileSwitchBusy      []float64
	chipSwitchBusy      []float64
	xferBackpressured   int64
	xferBackpressureSec float64

	// ExecTransfers scratch, reused across calls so the contention loop
	// runs without allocating: the batch indices of the intra-tile
	// transfers grouped by tile (int32 keeps the largest batches' index at
	// a sixth of a copied Transfer), each tile's group end in it, the
	// batch of the tile being scheduled, the cross-tile batch, and one
	// ledger each for the tile fabric and the chip-level network.
	tileOrder        []int32
	tileEnd          []int
	tileBatch        []intercon.Transfer
	crossBatch       []intercon.Transfer
	tileOcc, chipOcc intercon.Occupancy
}

// InterconReport is the run-level congestion summary of the interconnect:
// how many transfers were backpressured behind a busy switch, the total
// wait, and the per-switch busy-second ledgers (index = switch id; tile
// entries sum over all tiles).
type InterconReport struct {
	Topology        string    `json:"topology"`
	Transfers       int64     `json:"transfers"`
	Backpressured   int64     `json:"backpressured"`
	BackpressureSec float64   `json:"backpressure_seconds"`
	TileSwitchBusy  []float64 `json:"tile_switch_busy_seconds"`
	ChipSwitchBusy  []float64 `json:"chip_switch_busy_seconds,omitempty"`
}

// InterconReport snapshots the congestion accounting accumulated so far.
func (e *Engine) InterconReport() InterconReport {
	r := InterconReport{
		Topology:        e.Chip.Config.Interconnect.String(),
		Transfers:       e.TransferCt,
		Backpressured:   e.xferBackpressured,
		BackpressureSec: e.xferBackpressureSec,
	}
	r.TileSwitchBusy = append([]float64(nil), e.tileSwitchBusy...)
	r.ChipSwitchBusy = append([]float64(nil), e.chipSwitchBusy...)
	return r
}

// New creates an engine over a chip. The chip-level (inter-tile) network
// matches the configured tile interconnect kind, instantiated over the
// chip's tiles (e.g. a fanout-4 H-tree over tiles, or a single chip-wide
// bus for the Bus design). The chip validated the topology name, so the
// factory cannot fail here.
func New(ch *chip.Chip, functional bool) *Engine {
	e := &Engine{Chip: ch, Functional: functional}
	if n := ch.Config.NumTiles(); n > 1 {
		t, err := intercon.New(string(ch.Config.Interconnect), n,
			intercon.Config{Fanout: ch.Config.Fanout})
		if err != nil {
			panic(err)
		}
		e.chipTree = t
	}
	return e
}

// Now returns the current clock.
func (e *Engine) Now() float64 { return e.clock }

// SetContext installs (or, with nil, removes) the context consulted by
// ExecBlocks and the worker pool. A run driver sets it once for the whole
// run so the per-phase call sites stay signature-compatible; ExecBlocksCtx
// is the explicit-context form.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// Err returns the first cancellation error an ExecBlocks call observed
// since the last Reset/ClearErr, or nil.
func (e *Engine) Err() error { return e.err }

// ClearErr resets the latched cancellation error.
func (e *Engine) ClearErr() { e.err = nil }

// trackOf maps a phase kind to a stable trace lane, so Chrome renders
// compute, transfer, DRAM, and host activity as separate rows.
func trackOf(kind string) int {
	switch kind {
	case "blocks":
		return 0
	case "transfer":
		return 1
	case "dram":
		return 2
	case "host":
		return 3
	case "fault":
		return 4
	}
	return 5
}

// commit appends a phase at the given start and advances the clock to at
// least its end.
func (e *Engine) commit(p Phase, start float64) Phase {
	p.Start = start
	if p.End() > e.clock {
		e.clock = p.End()
	}
	e.TotalEnergy += p.EnergyJ
	e.Timeline = append(e.Timeline, p)
	if e.Obs != nil {
		e.Obs.Span(p.Name, p.Kind, p.Start, p.Dur, trackOf(p.Kind))
		e.Obs.Counter("sim.phase.count." + p.Kind).Inc()
		e.Obs.Histogram("sim.phase.seconds." + p.Kind).Observe(p.Dur)
		e.Obs.Histogram("sim.phase.energy_joules." + p.Kind).Observe(p.EnergyJ)
		// Labeled twins of the per-kind series: one histogram family per
		// phase name. Both label values are drawn from small enumerated
		// sets (phase names are compiler-fixed kernel stages), so the
		// exposition cardinality stays bounded (DESIGN.md §10).
		e.Obs.HistogramVec("sim.phase.span_seconds", "kind", "phase").
			With(p.Kind, p.Name).Observe(p.Dur)
		e.Obs.CounterVec("sim.phase.spans", "kind", "phase").
			With(p.Kind, p.Name).Inc()
		e.Obs.Gauge("sim.clock_seconds").Set(e.clock)
		e.Obs.Gauge("sim.total_energy_joules").Set(e.TotalEnergy)
	}
	return p
}

// Sequence lays a phase at the current clock.
func (e *Engine) Sequence(p Phase) Phase {
	out := e.commit(p, e.clock)
	e.drainFaultPhases()
	return out
}

// Parallel lays several phases at the same start time (the pipelining of
// Section 6.3: flux data fetch, host preprocessing and Volume compute
// overlap); the clock advances by the longest.
func (e *Engine) Parallel(ps ...Phase) []Phase {
	start := e.clock
	out := make([]Phase, 0, len(ps))
	for _, p := range ps {
		out = append(out, e.commit(p, start))
	}
	e.drainFaultPhases()
	return out
}

// drainFaultPhases commits the recovery phases queued by the last block
// phase, sequentially after it (the ladder runs after the compute).
func (e *Engine) drainFaultPhases() {
	for len(e.pendingFault) > 0 {
		pf := e.pendingFault
		e.pendingFault = nil
		for _, p := range pf {
			e.commit(p, e.clock)
		}
	}
}

// ---------------------------------------------------------------------------
// Cost model (single source of truth, verified against xbar's accounting)
// ---------------------------------------------------------------------------

// InstrCost returns the latency and energy of one instruction executed in a
// block. rowCount-dependent energy uses the instruction's own row range.
func InstrCost(in isa.Instr) (sec, joules float64) {
	switch in.Op {
	case isa.OpNop:
		return 0, 0
	case isa.OpRead:
		return params.BlockRowReadLatency, params.RowBufferReadEnergyJ
	case isa.OpWrite:
		return params.BlockRowWriteLatency, params.RowBufferWriteEnergyJ
	case isa.OpBroadcast:
		return params.BlockRowReadLatency + float64(in.RowCount)*params.BlockRowWriteLatency,
			params.RowBufferReadEnergyJ + float64(in.RowCount)*params.RowBufferWriteEnergyJ
	case isa.OpAdd, isa.OpSub:
		steps := float64(params.NORStepsFPAdd32)
		return steps * params.TNORSeconds, steps * params.EnergyPerNORStep * float64(in.RowCount)
	case isa.OpMul:
		steps := float64(params.NORStepsFPMul32)
		return steps * params.TNORSeconds, steps * params.EnergyPerNORStep * float64(in.RowCount)
	case isa.OpGroupBcast, isa.OpPattern:
		return params.GroupBcastLatencySec, params.GroupBcastEnergyJ
	case isa.OpLUT:
		// Algorithm 1: two reads and one write, plus the one-word transit
		// from the LUT block (charged by the caller via transfer path).
		sec = 2*params.BlockRowReadLatency + params.BlockRowWriteLatency
		joules = 2*params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ
		return sec, joules
	case isa.OpMemcpy:
		// Standalone memcpy latency is routing-dependent; ExecTransfers
		// prices full routes. A bare memcpy instruction accounts only the
		// endpoint buffer operations.
		return params.BlockRowReadLatency + params.BlockRowWriteLatency,
			params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ
	}
	panic(fmt.Sprintf("sim: unknown opcode %v", in.Op))
}

// ---------------------------------------------------------------------------
// Work executors (they price work; Sequence/Parallel place it in time)
// ---------------------------------------------------------------------------

// ExecBlocks executes one program per block, all blocks in parallel (the
// chip's defining property). Returns an unplaced Phase whose duration is
// the longest per-block program and whose energy is the sum.
//
// With Workers > 1 the per-block programs run on a goroutine pool; the
// commit stays deterministic because per-block durations, energies, and
// instruction counts are accumulated privately and merged in ascending
// block order (the serial path uses the same sorted order, so serial and
// parallel runs produce identical floating-point sums).
//
// Cancellation: when a context was installed with SetContext, ExecBlocks
// aborts between per-block programs once the context is done, latches the
// error (see Err), and returns a zero Phase.
func (e *Engine) ExecBlocks(name string, progs map[int][]isa.Instr) Phase {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := e.ExecBlocksCtx(ctx, name, progs)
	if err != nil && e.err == nil {
		e.err = err
	}
	return p
}

// ExecBlocksCtx is ExecBlocks with an explicit context: the worker pool
// stops claiming blocks as soon as ctx is done and the call returns
// ctx.Err() instead of finishing the batch (no phase is produced and
// nothing is charged to the timeline). In functional mode a cancelled
// batch leaves the chip partially updated, as a real abort would.
func (e *Engine) ExecBlocksCtx(ctx context.Context, name string, progs map[int][]isa.Instr) (Phase, error) {
	ids := make([]int, 0, len(progs))
	for id := range progs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	type blockCost struct {
		dur, energy float64
		instrs      int64

		// Recovery-ladder accounting (only written when the ladder is
		// active): scrub and retry costs are kept out of dur/energy so
		// the block phase stays nominal and the overhead lands on
		// dedicated sim.fault.* phases.
		scrubSec, scrubJ                            float64
		retrySec, retryJ                            float64
		detected, corrected, uncorrectable, retries int64
		failed                                      bool
	}
	costs := make([]blockCost, len(ids))
	instrumented := e.Obs != nil
	var opCounts [][isa.NumOpcodes]int64
	if instrumented {
		opCounts = make([][isa.NumOpcodes]int64, len(ids))
	}
	// The ladder runs when the engine executes real data under an
	// injector whose recovery policy enables ECC scrubbing.
	ladder := e.Functional && e.Faults != nil && e.Faults.Recovery().ECC
	maxRetries := 0
	if ladder {
		maxRetries = e.Faults.Recovery().MaxRetries
	}
	runBlock := func(i int) {
		blockID := ids[i]
		c := &costs[i]
		prog := progs[blockID]
		exec := func(durp, enp *float64) {
			for _, in := range prog {
				sec, j := InstrCost(in)
				*durp += sec
				*enp += j
				c.instrs++
				if instrumented {
					opCounts[i][in.Op]++
				}
				if in.Op == isa.OpLUT {
					// Transit of the fetched word from the LUT block.
					tsec, tj := e.transferCost(in.LUTBlock, blockID, 1)
					*durp += tsec
					*enp += tj
				}
				if e.Functional {
					e.execInstr(blockID, in)
				}
			}
		}
		if !ladder {
			exec(&c.dur, &c.energy)
			return
		}
		// Recovery ladder: scrub after the program; on uncorrectable
		// errors, rewind and re-execute (verify-retry) up to the budget.
		// Retry is only sound for self-contained programs — a program
		// touching foreign blocks cannot be rewound locally.
		blk := e.Chip.Block(blockID)
		retriable := progRetriable(blockID, prog)
		var cellSnap []uint32
		var pendSnap map[uint32]uint32
		if retriable && blk.Faults != nil {
			cellSnap = blk.Snapshot()
			pendSnap = blk.Faults.SnapshotPending()
		} else {
			retriable = false
		}
		exec(&c.dur, &c.energy)
		for attempt := 0; ; attempt++ {
			res := blk.Scrub()
			sec, j := fault.ScrubCost(int(res.Corrected))
			if attempt == 0 {
				c.scrubSec += sec
				c.scrubJ += j
			} else {
				c.retrySec += sec
				c.retryJ += j
			}
			c.detected += res.Detected
			c.corrected += res.Corrected
			if res.Uncorrectable == 0 {
				return
			}
			if !retriable || attempt >= maxRetries {
				c.uncorrectable += res.Uncorrectable
				c.failed = true
				return
			}
			c.retries++
			blk.Faults.AddRetry()
			bsec, bj := fault.BackoffCost(attempt + 1)
			c.retrySec += bsec
			c.retryJ += bj
			blk.Restore(cellSnap)
			blk.Faults.RestorePending(pendSnap)
			exec(&c.retrySec, &c.retryJ)
		}
	}

	done := ctx.Done()
	workers := e.execWorkers(len(ids))
	parallel := workers > 1 && blocksIndependent(progs)
	if parallel {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(ids) {
						return
					}
					runBlock(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range ids {
			if done != nil && ctx.Err() != nil {
				break
			}
			runBlock(i)
		}
	}
	if err := ctx.Err(); err != nil {
		return Phase{}, err
	}

	var maxDur, energy float64
	for i := range costs {
		if costs[i].dur > maxDur {
			maxDur = costs[i].dur
		}
		energy += costs[i].energy
		e.InstrCount += costs[i].instrs
	}
	if ladder {
		// Merge the ladder accounting in ascending block order (same
		// determinism discipline as the main cost merge) and queue the
		// recovery phases for the commit that follows this one.
		var scrubMax, scrubJ, retryMax, retryJ float64
		var detected, corrected, uncorrectable, retries int64
		var failed []int
		for i := range costs {
			c := &costs[i]
			if c.scrubSec > scrubMax {
				scrubMax = c.scrubSec
			}
			scrubJ += c.scrubJ
			if c.retrySec > retryMax {
				retryMax = c.retrySec
			}
			retryJ += c.retryJ
			detected += c.detected
			corrected += c.corrected
			uncorrectable += c.uncorrectable
			retries += c.retries
			if c.failed {
				failed = append(failed, ids[i])
			}
		}
		if scrubMax > 0 {
			e.pendingFault = append(e.pendingFault,
				Phase{Name: "sim.fault.ecc", Kind: "fault", Dur: scrubMax, EnergyJ: scrubJ})
		}
		if retryMax > 0 {
			e.pendingFault = append(e.pendingFault,
				Phase{Name: "sim.fault.retry", Kind: "fault", Dur: retryMax, EnergyJ: retryJ})
		}
		if instrumented {
			for _, c := range []struct {
				name string
				n    int64
			}{
				{"sim.fault.detected", detected},
				{"sim.fault.corrected", corrected},
				{"sim.fault.uncorrectable", uncorrectable},
				{"sim.fault.retries", retries},
			} {
				if c.n > 0 {
					e.Obs.Counter(c.name).Add(c.n)
				}
			}
		}
		// Per-block rung telemetry, emitted in ascending block order so
		// event streams and labeled counters are deterministic across
		// worker counts. MTTR = the simulated time one repair took.
		for i := range costs {
			c := &costs[i]
			if c.detected > 0 {
				e.noteRung("ecc", ids[i], c.scrubSec,
					eventlog.Int64("detected", c.detected),
					eventlog.Int64("corrected", c.corrected))
			}
			if c.retries > 0 {
				e.noteRung("retry", ids[i], c.retrySec,
					eventlog.Int64("retries", c.retries))
			}
		}
		if len(failed) > 0 {
			e.remapFailed(failed)
		}
	}
	if instrumented {
		var perOp [isa.NumOpcodes]int64
		blockEnergy := e.Obs.Histogram("sim.block.energy_joules")
		for i := range costs {
			blockEnergy.Observe(costs[i].energy)
			for op, n := range opCounts[i] {
				perOp[op] += n
			}
		}
		for op, n := range perOp {
			if n > 0 {
				e.Obs.Counter("sim.instr." + isa.Opcode(op).String()).Add(n)
			}
		}
		e.Obs.Counter("sim.pool.blocks").Add(int64(len(ids)))
		if parallel {
			e.Obs.Counter("sim.pool.parallel_execs").Inc()
			e.Obs.Gauge("sim.pool.workers").Set(float64(workers))
		} else {
			e.Obs.Counter("sim.pool.serial_execs").Inc()
		}
	}
	return Phase{Name: name, Kind: "blocks", Dur: maxDur, EnergyJ: energy}, nil
}

// execWorkers bounds the pool size by the work available.
func (e *Engine) execWorkers(nBlocks int) int {
	w := e.Workers
	if w > nBlocks {
		w = nBlocks
	}
	return w
}

// blocksIndependent reports whether every program touches only its own
// block's mutable state, so the programs can run concurrently. Reads from
// foreign LUT blocks are allowed as long as no program in the phase runs on
// (and could mutate) those blocks; memcpy and foreign-row read/write force
// the serial path.
func blocksIndependent(progs map[int][]isa.Instr) bool {
	for blockID, prog := range progs {
		for _, in := range prog {
			switch in.Op {
			case isa.OpMemcpy:
				return false
			case isa.OpRead, isa.OpWrite:
				if in.Block != blockID {
					return false
				}
			case isa.OpLUT:
				if _, ok := progs[in.LUTBlock]; ok {
					return false
				}
			}
		}
	}
	return true
}

// progRetriable reports whether a block program can be verify-retried: it
// must touch no foreign mutable state (LUT reads are fine — LUT blocks are
// static within a phase), so a cell Snapshot of this one block captures
// everything the replay needs.
func progRetriable(blockID int, prog []isa.Instr) bool {
	for _, in := range prog {
		switch in.Op {
		case isa.OpMemcpy:
			return false
		case isa.OpRead, isa.OpWrite:
			if in.Block != blockID {
				return false
			}
		}
	}
	return true
}

// noteRung records one recovery-rung firing on one block: a structured
// event (block, rung, simulated-time cost) plus the rung-labeled counter
// and MTTR histogram. rung is one of "ecc", "retry", "remap" (the engine
// rungs); the Session adds "rollback".
func (e *Engine) noteRung(rung string, block int, costSec float64, extra ...eventlog.Field) {
	if e.Obs != nil {
		e.Obs.CounterVec("sim.fault.rung_events", "rung").With(rung).Inc()
		e.Obs.HistogramVec("sim.fault.mttr_seconds", "rung").With(rung).Observe(costSec)
		e.Obs.CounterVec("sim.fault.block_events", "block").With(BlockLabel(block)).Inc()
	}
	if e.Log != nil {
		fields := append([]eventlog.Field{
			eventlog.Str("rung", rung),
			eventlog.Int("block", block),
			eventlog.F64("cost_seconds", costSec),
		}, extra...)
		e.Log.Info("fault.rung", fields...)
	}
}

// blockLabelCap bounds the cardinality of block-indexed metric labels:
// blocks past the cap share one overflow label (events still carry the
// exact id). See DESIGN.md §10 for the cardinality rules.
const blockLabelCap = 32

// BlockLabel renders a block id as a cardinality-capped label value.
func BlockLabel(id int) string {
	if id < blockLabelCap {
		return strconv.Itoa(id)
	}
	return "overflow"
}

// remapFailed migrates blocks that stayed uncorrectable after the retry
// budget onto spare blocks: the spare receives an ECC-corrected copy of
// every word, the chip's logical->physical table redirects the id, and the
// migration cost (full-array read + routed transfer + write) is queued as
// a sim.fault.remap phase. Spare exhaustion latches fault.ErrNoSpares.
func (e *Engine) remapFailed(failed []int) {
	for _, logical := range failed {
		if e.sparesUsed >= len(e.SparePool) {
			if e.err == nil {
				e.err = fmt.Errorf("sim: block %d uncorrectable after retries: %w", logical, fault.ErrNoSpares)
			}
			if e.Log != nil {
				e.Log.Error("fault.no_spares",
					eventlog.Int("block", logical),
					eventlog.Int("spares_used", e.sparesUsed))
			}
			return
		}
		spare := e.SparePool[e.sparesUsed]
		e.sparesUsed++
		oldPhys := e.Chip.Physical(logical)
		old := e.Chip.Block(logical)
		sb := e.Chip.Block(spare)
		for r := 0; r < xbar.Rows; r++ {
			for o := 0; o < xbar.WordsPerRow; o++ {
				sb.SetWord(r, o, old.CorrectedWord(r, o))
			}
		}
		if old.Faults != nil {
			old.Faults.ClearPending()
		}
		tsec, tj := e.transferCost(oldPhys, spare, xbar.Rows*xbar.WordsPerRow)
		sec := float64(xbar.Rows)*(params.BlockRowReadLatency+params.BlockRowWriteLatency) + tsec
		joules := float64(xbar.Rows)*(params.RowBufferReadEnergyJ+params.RowBufferWriteEnergyJ) + tj
		e.Chip.SetRemap(logical, spare)
		e.Faults.NoteRemap(logical)
		e.pendingFault = append(e.pendingFault,
			Phase{Name: "sim.fault.remap", Kind: "fault", Dur: sec, EnergyJ: joules})
		if e.Obs != nil {
			e.Obs.Counter("sim.fault.remaps").Inc()
		}
		e.noteRung("remap", logical, sec, eventlog.Int("spare", spare))
	}
}

// FaultReport assembles the per-run fault summary: the injector's
// aggregated counters plus the engine-owned spare-pool accounting. Zero
// value without an injector.
func (e *Engine) FaultReport() fault.Report {
	if e.Faults == nil {
		return fault.Report{}
	}
	r := e.Faults.Report()
	r.SparesUsed = e.sparesUsed
	r.SparesLeft = len(e.SparePool) - e.sparesUsed
	return r
}

// ExecEncoded executes assembled 64-bit instruction streams — the actual
// host-to-controller interface of the ISA-based design. The central
// controller decodes each word before dispatching it to the block's
// decoder, exactly as Section 4.1 describes ("Instructions are sent from
// the host, and are pre-processed by the decoder on the PIM chip").
func (e *Engine) ExecEncoded(name string, streams map[int][]uint64) (Phase, error) {
	progs := make(map[int][]isa.Instr, len(streams))
	for blockID, words := range streams {
		prog := make([]isa.Instr, len(words))
		for i, w := range words {
			in, err := isa.Decode(w)
			if err != nil {
				return Phase{}, fmt.Errorf("sim: block %d word %d: %w", blockID, i, err)
			}
			prog[i] = in
		}
		progs[blockID] = prog
	}
	return e.ExecBlocks(name, progs), nil
}

// ExecBlocksN prices one program template executed concurrently by n
// identical blocks — the timing-mode fast path for large models, where the
// per-block programs of a kernel phase are the same template replicated
// across every element (duration is one program; energy scales with n). It
// must not be used in functional mode.
func (e *Engine) ExecBlocksN(name string, prog []isa.Instr, n int, avgLUTHops int) Phase {
	if e.Functional {
		panic("sim: ExecBlocksN is timing-only; use ExecBlocks in functional mode")
	}
	var dur, energy float64
	for _, in := range prog {
		sec, j := InstrCost(in)
		dur += sec
		energy += j
		if in.Op == isa.OpLUT && avgLUTHops > 0 {
			dur += float64(avgLUTHops) * params.SwitchHopLatencySec
			energy += float64(avgLUTHops) * params.SwitchHopEnergyJ
		}
	}
	e.InstrCount += int64(len(prog) * n)
	if e.Obs != nil {
		var perOp [isa.NumOpcodes]int64
		for _, in := range prog {
			perOp[in.Op]++
		}
		for op, c := range perOp {
			if c > 0 {
				e.Obs.Counter("sim.instr." + isa.Opcode(op).String()).Add(c * int64(n))
			}
		}
		e.Obs.Counter("sim.pool.blocks").Add(int64(n))
	}
	return Phase{Name: name, Kind: "blocks", Dur: dur, EnergyJ: energy * float64(n)}
}

// execInstr performs one instruction's data effects.
func (e *Engine) execInstr(blockID int, in isa.Instr) {
	b := e.Chip.Block(blockID)
	switch in.Op {
	case isa.OpNop:
	case isa.OpRead:
		e.Chip.Block(in.Block).ReadRow(in.Row)
	case isa.OpWrite:
		e.Chip.Block(in.Block).WriteRow(in.Row)
	case isa.OpBroadcast:
		b.Broadcast(in.Row, in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.WordCount)
	case isa.OpAdd:
		e.arith(b, xbar.OpAdd, in)
	case isa.OpMul:
		e.arith(b, xbar.OpMul, in)
	case isa.OpSub:
		e.arith(b, xbar.OpSub, in)
	case isa.OpGroupBcast:
		b.GroupBcast(in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.Stride, in.GroupSize, in.GroupIdx)
	case isa.OpPattern:
		b.Pattern(in.Row, in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.Stride, in.GroupSize)
	case isa.OpLUT:
		// Algorithm 1 on real data.
		lut := e.Chip.Block(in.LUTBlock)
		idx := b.GetWord(in.Row, in.SrcOff)
		content := lut.GetWord(int(idx)/params.WordsPerRow, int(idx)%params.WordsPerRow)
		b.SetWord(in.Row, in.DstOff, content)
	case isa.OpMemcpy:
		src := e.Chip.Block(in.Block)
		src.ReadRow(in.Row)
		dst := e.Chip.Block(in.DstBlock)
		dst.LoadBuffer(src.Buffer())
		dst.WriteRow(in.DstRow)
	}
}

// arith dispatches one row-parallel arithmetic instruction: the host-float
// fast path by default, or the gate-level NOR slab substrate when
// SlabWords is set. Pool units are per-instruction, so the worker pool
// never shares a circuit.
func (e *Engine) arith(b *xbar.Block, op xbar.ArithOp, in isa.Instr) {
	if e.SlabWords <= 0 {
		b.ArithSel(op, in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Src2Off)
		return
	}
	u, _ := e.norUnits.Get().(*xbar.NORUnit)
	if u == nil || u.SlabWords() != e.SlabWords {
		u = xbar.NewNORUnit(e.SlabWords)
	}
	u.C.Stats = nor.Stats{}
	b.ArithSelNOR(u, op, in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Src2Off)
	st := u.C.Stats
	atomic.AddInt64(&e.norEvals, st.NOREvals)
	atomic.AddInt64(&e.norSets, st.Sets)
	atomic.AddInt64(&e.norResets, st.Resets)
	e.norUnits.Put(u)
}

// NORGateStats returns the gate-level activity accumulated by the slab
// substrate since the last Reset (all zero on the host-float path).
func (e *Engine) NORGateStats() nor.Stats {
	return nor.Stats{
		NOREvals: atomic.LoadInt64(&e.norEvals),
		Sets:     atomic.LoadInt64(&e.norSets),
		Resets:   atomic.LoadInt64(&e.norResets),
	}
}

// transferCost prices a words-long movement between two blocks, including
// the cross-tile path when they live in different tiles.
func (e *Engine) transferCost(src, dst int, words int) (sec, joules float64) {
	if src == dst {
		return 0, 0
	}
	hops := e.routeHops(src, dst)
	payloads := (words + params.PayloadWords - 1) / params.PayloadWords
	sec = float64(payloads+hops-1) * params.SwitchHopLatencySec
	joules = float64(words*hops) * params.SwitchHopEnergyJ
	return sec, joules
}

// routeHops counts the switches between two blocks: the tile topology path
// when co-resident; otherwise both tiles' full depth plus the chip-level
// router hop.
func (e *Engine) routeHops(src, dst int) int {
	st, dt := e.Chip.TileOf(src), e.Chip.TileOf(dst)
	if st == dt {
		return len(e.Chip.Topology(st).AppendPath(nil, e.Chip.LocalID(src), e.Chip.LocalID(dst)))
	}
	depth := e.Chip.Topology(st).EgressHops()
	return 2*depth + 1 // up the source tile, across the chip router, down the destination tile
}

// ExecTransfers schedules a batch of inter-block transfers. Intra-tile
// batches use the tile's contention-aware topology schedule and different
// tiles overlap; cross-tile transfers are scheduled on the chip-level
// H-tree over tiles (disjoint tile subtrees overlap, shared routes
// contend). Functional mode also moves the words.
//
// ExecTransfers does not retain trs. It batches into engine-owned scratch,
// so it must not be called concurrently on one Engine.
func (e *Engine) ExecTransfers(name string, trs []RowTransfer) Phase {
	// First pass: count each tile's intra-tile transfers into tileEnd and
	// collect the cross-tile batch.
	if nt := e.Chip.Config.NumTiles(); len(e.tileEnd) != nt {
		e.tileEnd = make([]int, nt)
	} else {
		clear(e.tileEnd)
	}
	cross := e.crossBatch[:0]
	var crossEndpoints float64
	var obsWords int64
	for _, tr := range trs {
		e.TransferCt++
		obsWords += int64(tr.Words)
		st, dt := e.Chip.TileOf(tr.SrcBlock), e.Chip.TileOf(tr.DstBlock)
		if st == dt {
			e.tileEnd[st]++
		} else {
			cross = append(cross, intercon.Transfer{Src: st, Dst: dt, Words: tr.Words})
			// The legs inside the two tiles (leaf to tile gateway and back).
			payloads := (tr.Words + params.PayloadWords - 1) / params.PayloadWords
			crossEndpoints += float64(2 * e.Chip.Topology(st).EgressHops() * payloads)
		}
		if e.Functional {
			e.moveWords(tr)
		}
	}
	e.crossBatch = cross
	// Second pass: turn the counts into group starts and place every
	// intra-tile transfer's index in its tile's group, keeping batch order
	// within a tile. Each tileEnd[t] ends at the end of tile t's group.
	n := 0
	for t, c := range e.tileEnd {
		e.tileEnd[t] = n
		n += c
	}
	if cap(e.tileOrder) < n {
		e.tileOrder = make([]int32, n)
	}
	order := e.tileOrder[:n]
	for i, tr := range trs {
		if st := e.Chip.TileOf(tr.SrcBlock); st == e.Chip.TileOf(tr.DstBlock) {
			order[e.tileEnd[st]] = int32(i)
			e.tileEnd[st]++
		}
	}
	// Visit tiles in ascending order: the float energy accumulation must
	// not depend on which tiles were touched first, or seeded runs stop
	// being byte-reproducible.
	var dur, energy float64
	start := 0
	for tile, end := range e.tileEnd {
		group := order[start:end]
		start = end
		if len(group) == 0 {
			continue
		}
		batch := e.tileBatch[:0]
		for _, i := range group {
			tr := &trs[i]
			batch = append(batch, intercon.Transfer{
				Src: e.Chip.LocalID(tr.SrcBlock), Dst: e.Chip.LocalID(tr.DstBlock), Words: tr.Words})
		}
		e.tileBatch = batch
		topo := e.Chip.Topology(tile)
		if e.tileSwitchBusy == nil {
			e.tileSwitchBusy = make([]float64, topo.SwitchCount())
		}
		s := e.tileOcc.Schedule(topo, batch, e.tileSwitchBusy)
		e.xferBackpressured += int64(s.Backpressured)
		e.xferBackpressureSec += s.BackpressureSec
		if s.Makespan > dur {
			dur = s.Makespan
		}
		energy += s.EnergyJ
	}
	if len(cross) > 0 && e.chipTree != nil {
		if e.chipSwitchBusy == nil {
			e.chipSwitchBusy = make([]float64, e.chipTree.SwitchCount())
		}
		s := e.chipOcc.Schedule(e.chipTree, cross, e.chipSwitchBusy)
		e.xferBackpressured += int64(s.Backpressured)
		e.xferBackpressureSec += s.BackpressureSec
		// Tile-internal legs of cross-tile routes add energy and latency.
		legEnergy := crossEndpoints * params.PayloadWords * params.SwitchHopEnergyJ
		crossDur := s.Makespan + crossEndpoints/float64(len(cross))*params.SwitchHopLatencySec
		energy += s.EnergyJ + legEnergy
		if crossDur > dur {
			dur = crossDur
		}
	}
	// Endpoint row buffer operations (read at source, write at target) are
	// part of every transfer (Figure 3's I0 and I4).
	if len(trs) > 0 {
		dur += params.BlockRowReadLatency + params.BlockRowWriteLatency
		energy += float64(len(trs)) * (params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ)
	}
	if e.Obs != nil {
		e.Obs.Counter("sim.transfer.count").Add(int64(len(trs)))
		e.Obs.Counter("sim.transfer.words").Add(obsWords)
	}
	return Phase{Name: name, Kind: "transfer", Dur: dur, EnergyJ: energy}
}

// moveWords performs the functional data movement of one transfer.
func (e *Engine) moveWords(tr RowTransfer) {
	src := e.Chip.Block(tr.SrcBlock)
	dst := e.Chip.Block(tr.DstBlock)
	for w := 0; w < tr.Words; w++ {
		dst.SetWord(tr.DstRow, tr.DstOff+w, src.GetWord(tr.SrcRow, tr.SrcOff+w))
	}
}

// ExecDRAM prices an off-chip HBM2 transaction (batching's store/load
// steps, Figure 6). Energy charges the DRAM's power for the duration.
func (e *Engine) ExecDRAM(name string, bytes int64) Phase {
	e.DRAMBytes += bytes
	dur := float64(bytes) / params.OffChipBandwidthBps
	return Phase{Name: name, Kind: "dram", Dur: dur, EnergyJ: params.OffChipDRAMPowerW * dur}
}

// ExecHost prices host CPU preprocessing: the sqrt and inverse units
// offloaded per Section 4.3, spread across the host's cores.
func (e *Engine) ExecHost(name string, sqrts, inverses int) Phase {
	h := params.ARMCortexA72
	work := float64(sqrts)*h.SqrtLatencySec + float64(inverses)*h.InverseLatencySec
	dur := work / float64(h.Cores)
	return Phase{Name: name, Kind: "host", Dur: dur, EnergyJ: h.PowerW * dur}
}

// StaticEnergy returns the chip's static (leakage + host idle + DRAM
// standby) energy over the current makespan; callers add it to TotalEnergy
// for whole-run energy accounting.
func (e *Engine) StaticEnergy() float64 {
	return chip.SystemPowerW(e.Chip.Config) * e.clock
}

// TotalTime returns the current makespan.
func (e *Engine) TotalTime() float64 { return e.clock }

// PhaseTime sums the durations of timeline phases whose name contains the
// given substring (for breakdown reporting).
func (e *Engine) PhaseTime(kind string) float64 {
	var t float64
	for _, p := range e.Timeline {
		if p.Kind == kind {
			t += p.Dur
		}
	}
	return t
}

// Reset clears the timeline and counters but keeps the chip (and its
// data). Remaps and spare-pool consumption survive a Reset — they are chip
// state, not run state.
func (e *Engine) Reset() {
	e.Timeline = nil
	e.TotalEnergy = 0
	e.clock = 0
	e.InstrCount = 0
	e.TransferCt = 0
	e.DRAMBytes = 0
	e.err = nil
	e.pendingFault = nil
	e.tileSwitchBusy = nil
	e.chipSwitchBusy = nil
	e.xferBackpressured = 0
	e.xferBackpressureSec = 0
	atomic.StoreInt64(&e.norEvals, 0)
	atomic.StoreInt64(&e.norSets, 0)
	atomic.StoreInt64(&e.norResets, 0)
}

// PublishTotals writes the engine's run-level aggregates into the attached
// sink's registry (no-op without a sink). Run drivers call it once at the
// end of a run.
func (e *Engine) PublishTotals() {
	if e.Obs == nil {
		return
	}
	e.Obs.Gauge("sim.total_seconds").Set(e.TotalTime())
	e.Obs.Gauge("sim.total_energy_joules").Set(e.TotalEnergy)
	e.Obs.Gauge("sim.static_energy_joules").Set(e.StaticEnergy())
	e.Obs.Gauge("sim.instr_count").Set(float64(e.InstrCount))
	e.Obs.Gauge("sim.transfer_count").Set(float64(e.TransferCt))
	e.Obs.Gauge("sim.dram_bytes").Set(float64(e.DRAMBytes))
	e.Obs.Gauge("sim.workers").Set(float64(e.Workers))
	e.Obs.Gauge("sim.intercon.backpressured").Set(float64(e.xferBackpressured))
	e.Obs.Gauge("sim.intercon.backpressure_seconds").Set(e.xferBackpressureSec)
	if e.SlabWords > 0 {
		st := e.NORGateStats()
		e.Obs.Gauge("sim.nor.slab_words").Set(float64(e.SlabWords))
		e.Obs.Gauge("sim.nor.gate_evals").Set(float64(st.NOREvals))
		e.Obs.Gauge("sim.nor.gate_sets").Set(float64(st.Sets))
		e.Obs.Gauge("sim.nor.gate_resets").Set(float64(st.Resets))
	}
	if e.Faults != nil {
		r := e.FaultReport()
		e.Obs.Gauge("sim.fault.flips").Set(float64(r.Counts.Flips))
		e.Obs.Gauge("sim.fault.stuck_writes").Set(float64(r.Counts.StuckWrites))
		e.Obs.Gauge("sim.fault.wearouts").Set(float64(r.Counts.Wearouts))
		e.Obs.Gauge("sim.fault.spares_used").Set(float64(r.SparesUsed))
		e.Obs.Gauge("sim.fault.rollbacks").Set(float64(r.Rollbacks))
	}
}

// TimelineDigest is an FNV-1a hash of the committed timeline (names,
// kinds, and exact float bit patterns of start/duration/energy). Two runs
// are timeline-identical iff their digests match — the reproducibility
// check of the fault determinism gate.
func (e *Engine) TimelineDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mixU64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			mixByte(byte(v >> s))
		}
	}
	for _, p := range e.Timeline {
		for _, s := range []string{p.Name, p.Kind} {
			for i := 0; i < len(s); i++ {
				mixByte(s[i])
			}
			mixByte(0)
		}
		mixU64(math.Float64bits(p.Start))
		mixU64(math.Float64bits(p.Dur))
		mixU64(math.Float64bits(p.EnergyJ))
	}
	return h
}

// CheckClose is a test helper: true when a and b agree within rel.
func CheckClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*den
}
