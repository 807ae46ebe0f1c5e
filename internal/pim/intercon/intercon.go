// Package intercon models the inter-block interconnect of Section 4.2 as a
// pluggable routing/congestion substrate. The paper evaluates two designs —
// the H-tree (a fanout-4 switch tree per memory tile, 85 switches for a
// 256-block tile) and the Bus (one central switch) — and this package keeps
// those two bit-exact while adding four classic NoC fabrics (mesh, torus,
// flattened butterfly, dragonfly) behind the same Topology interface. The
// essential behaviour the paper evaluates — transfers through disjoint
// routes proceed in parallel while transfers sharing a switch serialize —
// is captured by a contention-aware list scheduler built on an explicit
// estimate → occupy → backpressure loop over per-switch channel ledgers.
package intercon

import (
	"errors"
	"fmt"
	"strings"

	"wavepim/internal/params"
)

// Transfer is one inter-block payload movement (a row-buffer's worth or a
// word subset of it).
type Transfer struct {
	Src, Dst int // block indices (leaves)
	Words    int // 32-bit words moved
}

// Topology routes transfers between leaf blocks. Beyond the path view
// (AppendPath), implementations expose a channel view — SwitchCount,
// Radix, and EgressHops — that the scheduler's occupancy ledger and the
// topology-sweep reports are built on.
type Topology interface {
	// Name returns the wire name of the topology (one of Names()).
	Name() string
	// AppendPath appends the switch IDs a src->dst transfer traverses, in
	// order, to buf and returns the extended slice. Nothing is appended
	// when src == dst (no interconnect involvement). Passing a reused
	// buf[:0] routes without allocating; callers that do not care pass nil.
	AppendPath(buf []int, src, dst int) []int
	// SwitchCount is the number of switches in the topology.
	SwitchCount() int
	// LeakagePowerW is the static power of all switches.
	LeakagePowerW() float64
	// Leaves is the number of leaf blocks.
	Leaves() int
	// HopLatency is the per-payload per-hop latency: H-tree and mesh
	// switches span a fanout-sized neighborhood, while bus/express/global
	// links drive longer wires and are correspondingly slower.
	HopLatency() float64
	// Radix is the port count of the busiest switch (attached leaves plus
	// inter-switch links) — the channel-view size used for leakage scaling
	// and sweep reports.
	Radix() int
	// EgressHops is the number of switch crossings from a leaf to the
	// topology's chip-port gateway (for a tree, the depth). Cross-tile
	// transfers pay this leg inside both endpoint tiles.
	EgressHops() int
}

// Names lists the wire names of every constructible topology, in the
// canonical sweep order (the two paper designs first).
func Names() []string {
	return []string{"htree", "bus", "mesh", "torus", "flatfly", "dragonfly"}
}

// ErrUnknownTopology reports a topology name outside Names().
var ErrUnknownTopology = errors.New("unknown interconnect topology")

// Config carries the per-topology construction knobs. The zero value
// selects the paper defaults.
type Config struct {
	Fanout int // H-tree fanout (default 4); ignored by the other fabrics
}

// New builds a topology by wire name over the given leaf count. The empty
// name selects the paper's default H-tree. Unknown names wrap
// ErrUnknownTopology (errors.Is-matchable).
func New(name string, leaves int, cfg Config) (Topology, error) {
	fanout := cfg.Fanout
	if fanout < 2 {
		fanout = 4
	}
	switch name {
	case "", "htree":
		return NewHTree(leaves, fanout), nil
	case "bus":
		return NewBus(leaves), nil
	case "mesh":
		return NewMesh(leaves), nil
	case "torus":
		return NewTorus(leaves), nil
	case "flatfly":
		return NewFlattenedButterfly(leaves), nil
	case "dragonfly":
		return NewDragonfly(leaves), nil
	}
	return nil, fmt.Errorf("intercon: %w: %q (known: %s)",
		ErrUnknownTopology, name, strings.Join(Names(), ", "))
}

// perSwitchLeakW is the leakage of one H-tree-class (radix-5) switch,
// derived from Table 3's 85-switch tile budget. The non-paper fabrics scale
// it by their switch count and radix.
func perSwitchLeakW() float64 {
	return params.PowerHTreeSwitchesW / params.HTreeSwitchesPerTile
}

// scaledLeakW prices a fabric of n switches of the given radix against the
// H-tree's radix-5 (four children plus one parent) reference switch.
func scaledLeakW(n, radix int) float64 {
	return perSwitchLeakW() * float64(n) * float64(radix) / 5.0
}

// ---------------------------------------------------------------------------
// H-tree
// ---------------------------------------------------------------------------

// HTree is the paper's fanout-k switch tree. Level 0 switches connect
// groups of fanout adjacent blocks (the S0 of Figure 3); each higher level
// connects fanout lower switches, up to a single root.
type HTree struct {
	leaves int
	fanout int
	levels []htreeLevel // index = level, 0 = leaf switches
}

// htreeLevel describes one H-tree level: base is the global switch ID of
// its first switch, count how many switches it has, and div is
// fanout^(level+1), so a leaf's ancestor at this level is base + leaf/div.
type htreeLevel struct {
	base, count, div int
}

// NewHTree builds an H-tree over leaves blocks with the given fanout
// (the paper uses 4 but notes "the number of children of a tree node does
// not have to be 4").
func NewHTree(leaves, fanout int) *HTree {
	if leaves < 1 || fanout < 2 {
		panic(fmt.Sprintf("intercon: invalid H-tree leaves=%d fanout=%d", leaves, fanout))
	}
	depth := 1 // a single leaf still gets one (root) switch
	for n := (leaves + fanout - 1) / fanout; n > 1; n = (n + fanout - 1) / fanout {
		depth++
	}
	h := &HTree{leaves: leaves, fanout: fanout, levels: make([]htreeLevel, depth)}
	n, base, div := leaves, 0, fanout
	for l := range h.levels {
		n = (n + fanout - 1) / fanout
		h.levels[l] = htreeLevel{base: base, count: n, div: div}
		base += n
		div *= fanout
	}
	return h
}

// Name implements Topology.
func (h *HTree) Name() string { return "htree" }

// Leaves implements Topology.
func (h *HTree) Leaves() int { return h.leaves }

// SwitchCount implements Topology. For the paper's 256-block tile with
// fanout 4 this is 64+16+4+1 = 85, matching Table 3.
func (h *HTree) SwitchCount() int {
	var n int
	for _, lv := range h.levels {
		n += lv.count
	}
	return n
}

// LeakagePowerW scales the published 85-switch tile power to this tree's
// switch count.
func (h *HTree) LeakagePowerW() float64 {
	return perSwitchLeakW() * float64(h.SwitchCount())
}

// HopLatency implements Topology.
func (h *HTree) HopLatency() float64 { return params.SwitchHopLatencySec }

// Radix implements Topology: fanout children plus the parent link.
func (h *HTree) Radix() int { return h.fanout + 1 }

// EgressHops implements Topology: the tree depth (a leaf-to-root climb).
func (h *HTree) EgressHops() int { return len(h.levels) }

// switchAt returns the global ID of the level-l ancestor switch of a leaf.
func (h *HTree) switchAt(leaf, level int) int {
	lv := &h.levels[level]
	return lv.base + leaf/lv.div
}

// AppendPath implements Topology: climb from src to the lowest common
// ancestor, then descend to dst. The Figure 3 walkthrough (Block 0 to
// Block 5 via D0->D1->D2->D3 through S0, S1, S0') is reproduced exactly.
func (h *HTree) AppendPath(buf []int, src, dst int) []int {
	if src < 0 || src >= h.leaves || dst < 0 || dst >= h.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, h.leaves))
	}
	if src == dst {
		return buf
	}
	// Find LCA level: lowest level where both map to the same switch.
	lca := 0
	for h.switchAt(src, lca) != h.switchAt(dst, lca) {
		lca++
	}
	for l := 0; l <= lca; l++ {
		buf = append(buf, h.switchAt(src, l))
	}
	for l := lca - 1; l >= 0; l-- {
		buf = append(buf, h.switchAt(dst, l))
	}
	return buf
}

// ---------------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------------

// Bus is the single-switch alternative: cheap and low-leakage, but every
// transfer serializes through switch 0.
type Bus struct {
	leaves int
}

// NewBus builds a bus over leaves blocks.
func NewBus(leaves int) *Bus {
	if leaves < 1 {
		panic("intercon: bus needs at least one leaf")
	}
	return &Bus{leaves: leaves}
}

// Name implements Topology.
func (b *Bus) Name() string { return "bus" }

// Leaves implements Topology.
func (b *Bus) Leaves() int { return b.leaves }

// SwitchCount implements Topology.
func (b *Bus) SwitchCount() int { return 1 }

// LeakagePowerW implements Topology (Table 3's 17.2 mW bus switch).
func (b *Bus) LeakagePowerW() float64 { return params.PowerBusSwitchW }

// HopLatency implements Topology: the central bus switch drives
// tile-spanning wires, so each payload beat is slower than an H-tree
// switch's neighborhood hop.
func (b *Bus) HopLatency() float64 { return params.BusHopPenalty * params.SwitchHopLatencySec }

// Radix implements Topology: every leaf hangs off the one switch.
func (b *Bus) Radix() int { return b.leaves }

// EgressHops implements Topology.
func (b *Bus) EgressHops() int { return 1 }

// AppendPath implements Topology.
func (b *Bus) AppendPath(buf []int, src, dst int) []int {
	if src < 0 || src >= b.leaves || dst < 0 || dst >= b.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, b.leaves))
	}
	if src == dst {
		return buf
	}
	return append(buf, 0)
}

// ---------------------------------------------------------------------------
// Contention-aware scheduling: estimate -> occupy -> backpressure
// ---------------------------------------------------------------------------

// Schedule is the result of scheduling a batch of transfers.
type Schedule struct {
	Makespan float64 // time until the last transfer completes
	EnergyJ  float64 // dynamic switching energy
	Words    int64   // total words moved
	// Backpressure accounting: a transfer whose estimated injection time
	// is pushed past zero by a busy switch on its route counts as one
	// backpressure event, and the push is its backpressure wait.
	Backpressured   int
	BackpressureSec float64
}

// Occupancy is the per-switch channel ledger of the contention loop: for
// every switch id in [0, SwitchCount()) it tracks when the switch next
// falls idle. One ledger prices one batch at a time; the simulated
// timeline charges batches sequentially. The zero value is ready to use,
// and a reused Occupancy schedules without allocating once its ledger and
// route buffer have grown to the largest fabric and route it has seen. An
// Occupancy must not be used by two goroutines at once.
type Occupancy struct {
	free []float64 // free[s]: when switch s next falls idle
	path []int     // route buffer reused across transfers
}

// Schedule schedules the transfers in order with greedy list scheduling
// under store-and-forward pipelining: the payload stream occupies switch i
// of its route for payloads hop-cycles starting one hop-cycle after switch
// i-1, so a switch is released as soon as the stream has passed through
// it. Each transfer runs one estimate -> occupy round against the ledger,
// which starts the batch empty; a congested switch backpressures later
// transfers (serializing them), while disjoint routes overlap fully — on
// the bus every route shares switch 0 and therefore serializes, the
// Section 4.2.2 behaviour ("the bus switch processes these transmissions
// sequentially").
//
// busy, when non-nil, must have at least topo.SwitchCount() entries; each
// switch's occupied seconds are added to it (across calls, if shared). The
// timing math is identical either way — busy only observes the ledger.
func (o *Occupancy) Schedule(topo Topology, batch []Transfer, busy []float64) Schedule {
	n := topo.SwitchCount()
	if cap(o.free) < n {
		o.free = make([]float64, n)
	}
	o.free = o.free[:n]
	clear(o.free)
	var out Schedule
	hop := topo.HopLatency()
	for _, tr := range batch {
		path := topo.AppendPath(o.path[:0], tr.Src, tr.Dst)
		o.path = path
		if len(path) == 0 {
			continue
		}
		payloads := (tr.Words + params.PayloadWords - 1) / params.PayloadWords
		occupy := float64(payloads) * hop
		// Estimate: earliest start such that every switch i is free when
		// the payload stream reaches it at start + i*hop.
		var start float64
		for i, s := range path {
			if t := o.free[s] - float64(i)*hop; t > start {
				start = t
			}
		}
		// Occupy: switch i is busy from start + i*hop for occupy seconds.
		for i, s := range path {
			o.free[s] = start + float64(i)*hop + occupy
			if busy != nil {
				busy[s] += occupy
			}
		}
		// Backpressure: any push past immediate injection means a busy
		// switch serialized this transfer behind an earlier one.
		if start > 0 {
			out.Backpressured++
			out.BackpressureSec += start
		}
		if end := start + float64(len(path)-1)*hop + occupy; end > out.Makespan {
			out.Makespan = end
		}
		out.EnergyJ += float64(tr.Words*len(path)) * params.SwitchHopEnergyJ
		out.Words += int64(tr.Words)
	}
	return out
}

// ScheduleBatch prices one batch on a fresh ledger; see
// (*Occupancy).Schedule.
func ScheduleBatch(topo Topology, batch []Transfer) Schedule {
	return new(Occupancy).Schedule(topo, batch, nil)
}

// FilterMasked partitions a batch for a topology with masked-off (failed
// or retired) leaves: transfers whose endpoints are all healthy are
// routable; transfers touching a masked leaf — or a leaf outside the
// topology — are returned separately so the caller can remap them instead
// of panicking inside Path. This is the route-around primitive of
// spare-block remapping: a retired physical block disappears from the
// schedulable set, and the cost models only ever see healthy endpoints.
func FilterMasked(t Topology, batch []Transfer, masked map[int]bool) (routable, rejected []Transfer) {
	n := t.Leaves()
	for _, tr := range batch {
		bad := tr.Src < 0 || tr.Src >= n || tr.Dst < 0 || tr.Dst >= n ||
			masked[tr.Src] || masked[tr.Dst]
		if bad {
			rejected = append(rejected, tr)
		} else {
			routable = append(routable, tr)
		}
	}
	return routable, rejected
}
