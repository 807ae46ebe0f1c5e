package intercon

import (
	"fmt"

	"wavepim/internal/params"
)

// The four non-paper NoC fabrics. All share one construction convention:
// blocks attach to switches with a fixed concentration (gridConcentration
// leaves per switch, mirroring the H-tree's fanout-4 level-0 switches),
// and the switches form the fabric proper. Routing is deterministic —
// dimension-ordered on mesh/torus, row-first on the flattened butterfly,
// gateway-ordered on the dragonfly — so path choice never depends on load
// and two identical runs schedule identically.

// gridConcentration is the number of leaves attached to each switch of the
// mesh-family fabrics (matches the H-tree's level-0 grouping).
const gridConcentration = 4

// grid lays switches out row-major on a kx * ky rectangle.
type grid struct {
	leaves   int
	switches int
	kx, ky   int
}

func newGrid(leaves int) grid {
	if leaves < 1 {
		panic("intercon: grid needs at least one leaf")
	}
	switches := (leaves + gridConcentration - 1) / gridConcentration
	kx := 1
	for kx*kx < switches {
		kx++
	}
	ky := (switches + kx - 1) / kx
	return grid{leaves: leaves, switches: switches, kx: kx, ky: ky}
}

// switchOf returns the switch a leaf attaches to.
func (g grid) switchOf(leaf int) int { return leaf / gridConcentration }

func (g grid) coords(s int) (x, y int) { return s % g.kx, s / g.kx }

func (g grid) id(x, y int) int { return y*g.kx + x }

func (g grid) checkLeaves(src, dst int) {
	if src < 0 || src >= g.leaves || dst < 0 || dst >= g.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, g.leaves))
	}
}

// ---------------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------------

// Mesh is a 2D mesh of concentrated switches with XY dimension-order
// routing: a transfer first walks its row to the destination column, then
// the column to the destination row. Neighborhood links keep the hop
// latency at the H-tree switch latency, but long Manhattan routes cross
// many switches.
type Mesh struct {
	g grid
}

// NewMesh builds a concentrated 2D mesh over leaves blocks.
func NewMesh(leaves int) *Mesh { return &Mesh{g: newGrid(leaves)} }

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// Leaves implements Topology.
func (m *Mesh) Leaves() int { return m.g.leaves }

// SwitchCount implements Topology.
func (m *Mesh) SwitchCount() int { return m.g.kx * m.g.ky }

// Radix implements Topology: four mesh neighbors plus the attached leaves.
func (m *Mesh) Radix() int { return gridConcentration + 4 }

// LeakagePowerW implements Topology.
func (m *Mesh) LeakagePowerW() float64 { return scaledLeakW(m.SwitchCount(), m.Radix()) }

// HopLatency implements Topology: mesh links span one switch neighborhood.
func (m *Mesh) HopLatency() float64 { return params.MeshHopPenalty * params.SwitchHopLatencySec }

// EgressHops implements Topology: corner leaf to the central gateway.
func (m *Mesh) EgressHops() int { return m.g.kx/2 + m.g.ky/2 + 1 }

// AppendPath implements Topology with XY dimension-order routing.
func (m *Mesh) AppendPath(buf []int, src, dst int) []int {
	m.g.checkLeaves(src, dst)
	if src == dst {
		return buf
	}
	s1, s2 := m.g.switchOf(src), m.g.switchOf(dst)
	buf = append(buf, s1)
	if s1 == s2 {
		return buf
	}
	x, y := m.g.coords(s1)
	x2, y2 := m.g.coords(s2)
	for x != x2 {
		if x < x2 {
			x++
		} else {
			x--
		}
		buf = append(buf, m.g.id(x, y))
	}
	for y != y2 {
		if y < y2 {
			y++
		} else {
			y--
		}
		buf = append(buf, m.g.id(x, y))
	}
	return buf
}

// ---------------------------------------------------------------------------
// Torus
// ---------------------------------------------------------------------------

// Torus is the mesh with wraparound links in both dimensions; routing is
// dimension-ordered along the shorter wrap direction (ties break toward
// increasing coordinates, keeping routing deterministic).
type Torus struct {
	g grid
}

// NewTorus builds a concentrated 2D torus over leaves blocks.
func NewTorus(leaves int) *Torus { return &Torus{g: newGrid(leaves)} }

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// Leaves implements Topology.
func (t *Torus) Leaves() int { return t.g.leaves }

// SwitchCount implements Topology.
func (t *Torus) SwitchCount() int { return t.g.kx * t.g.ky }

// Radix implements Topology.
func (t *Torus) Radix() int { return gridConcentration + 4 }

// LeakagePowerW implements Topology.
func (t *Torus) LeakagePowerW() float64 { return scaledLeakW(t.SwitchCount(), t.Radix()) }

// HopLatency implements Topology.
func (t *Torus) HopLatency() float64 { return params.MeshHopPenalty * params.SwitchHopLatencySec }

// EgressHops implements Topology: wraparound halves the worst leg.
func (t *Torus) EgressHops() int { return (t.g.kx+3)/4 + (t.g.ky+3)/4 + 1 }

// wrapStep returns the per-hop step (+1 or -1 modulo k) of the shorter
// direction from a to b on a k-ring; ties go forward.
func wrapStep(a, b, k int) int {
	fwd := (b - a + k) % k
	if fwd <= k-fwd {
		return 1
	}
	return -1
}

// AppendPath implements Topology with wrap-aware dimension-order routing.
func (t *Torus) AppendPath(buf []int, src, dst int) []int {
	t.g.checkLeaves(src, dst)
	if src == dst {
		return buf
	}
	s1, s2 := t.g.switchOf(src), t.g.switchOf(dst)
	buf = append(buf, s1)
	if s1 == s2 {
		return buf
	}
	x, y := t.g.coords(s1)
	x2, y2 := t.g.coords(s2)
	for step := wrapStep(x, x2, t.g.kx); x != x2; {
		x = (x + step + t.g.kx) % t.g.kx
		buf = append(buf, t.g.id(x, y))
	}
	for step := wrapStep(y, y2, t.g.ky); y != y2; {
		y = (y + step + t.g.ky) % t.g.ky
		buf = append(buf, t.g.id(x, y))
	}
	return buf
}

// ---------------------------------------------------------------------------
// Flattened butterfly
// ---------------------------------------------------------------------------

// FlattenedButterfly is the mesh grid with express links: every switch
// links directly to every other switch in its row and in its column, so
// any route crosses at most three switches (source, the row/column corner,
// destination). The express wires span whole rows, priced by the flattened
// butterfly hop penalty.
type FlattenedButterfly struct {
	g grid
}

// NewFlattenedButterfly builds a concentrated flattened butterfly.
func NewFlattenedButterfly(leaves int) *FlattenedButterfly {
	return &FlattenedButterfly{g: newGrid(leaves)}
}

// Name implements Topology.
func (f *FlattenedButterfly) Name() string { return "flatfly" }

// Leaves implements Topology.
func (f *FlattenedButterfly) Leaves() int { return f.g.leaves }

// SwitchCount implements Topology.
func (f *FlattenedButterfly) SwitchCount() int { return f.g.kx * f.g.ky }

// Radix implements Topology: full row plus full column express links.
func (f *FlattenedButterfly) Radix() int {
	return gridConcentration + (f.g.kx - 1) + (f.g.ky - 1)
}

// LeakagePowerW implements Topology.
func (f *FlattenedButterfly) LeakagePowerW() float64 {
	return scaledLeakW(f.SwitchCount(), f.Radix())
}

// HopLatency implements Topology: express links cross whole rows/columns.
func (f *FlattenedButterfly) HopLatency() float64 {
	return params.FlatFlyHopPenalty * params.SwitchHopLatencySec
}

// EgressHops implements Topology: any switch reaches the gateway in one
// express hop.
func (f *FlattenedButterfly) EgressHops() int { return 2 }

// AppendPath implements Topology with deterministic row-first routing:
// the intermediate switch is the one sharing src's row and dst's column.
func (f *FlattenedButterfly) AppendPath(buf []int, src, dst int) []int {
	f.g.checkLeaves(src, dst)
	if src == dst {
		return buf
	}
	s1, s2 := f.g.switchOf(src), f.g.switchOf(dst)
	if s1 == s2 {
		return append(buf, s1)
	}
	x1, y1 := f.g.coords(s1)
	x2, y2 := f.g.coords(s2)
	if x1 == x2 || y1 == y2 {
		return append(buf, s1, s2)
	}
	return append(buf, s1, f.g.id(x2, y1), s2)
}

// ---------------------------------------------------------------------------
// Dragonfly
// ---------------------------------------------------------------------------

// dragonflyGroupSize is the number of switches per dragonfly group ("a" in
// the canonical parameterization).
const dragonflyGroupSize = 4

// Dragonfly groups switches into all-to-all-connected pods; pods connect
// pairwise through global links whose endpoints are spread across the
// group's switches. Any route crosses at most four switches: source, the
// source group's gateway toward the destination group, the destination
// group's gateway back, destination. Global links span the tile, priced by
// the dragonfly hop penalty.
type Dragonfly struct {
	leaves   int
	switches int
	groups   int
}

// NewDragonfly builds a concentrated dragonfly over leaves blocks.
func NewDragonfly(leaves int) *Dragonfly {
	if leaves < 1 {
		panic("intercon: dragonfly needs at least one leaf")
	}
	switches := (leaves + gridConcentration - 1) / gridConcentration
	groups := (switches + dragonflyGroupSize - 1) / dragonflyGroupSize
	return &Dragonfly{leaves: leaves, switches: switches, groups: groups}
}

// Name implements Topology.
func (d *Dragonfly) Name() string { return "dragonfly" }

// Leaves implements Topology.
func (d *Dragonfly) Leaves() int { return d.leaves }

// SwitchCount implements Topology.
func (d *Dragonfly) SwitchCount() int { return d.switches }

// Radix implements Topology: intra-group all-to-all plus this switch's
// share of the group's global links.
func (d *Dragonfly) Radix() int {
	globalsPerSwitch := (d.groups - 1 + dragonflyGroupSize - 1) / dragonflyGroupSize
	return gridConcentration + (dragonflyGroupSize - 1) + globalsPerSwitch
}

// LeakagePowerW implements Topology.
func (d *Dragonfly) LeakagePowerW() float64 { return scaledLeakW(d.SwitchCount(), d.Radix()) }

// HopLatency implements Topology.
func (d *Dragonfly) HopLatency() float64 {
	return params.DragonflyHopPenalty * params.SwitchHopLatencySec
}

// EgressHops implements Topology: own switch plus the group gateway.
func (d *Dragonfly) EgressHops() int { return 2 }

func (d *Dragonfly) groupOf(s int) int { return s / dragonflyGroupSize }

// gateway returns the switch in group g that terminates the global link
// toward group other. Spreading link endpoints by destination group keeps
// global traffic from funneling through one switch per group; clamping
// keeps the gateway inside a partial trailing group.
func (d *Dragonfly) gateway(g, other int) int {
	s := g*dragonflyGroupSize + other%dragonflyGroupSize
	if s >= d.switches {
		s = g * dragonflyGroupSize
	}
	return s
}

// AppendPath implements Topology with minimal gateway routing.
func (d *Dragonfly) AppendPath(buf []int, src, dst int) []int {
	if src < 0 || src >= d.leaves || dst < 0 || dst >= d.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, d.leaves))
	}
	if src == dst {
		return buf
	}
	s1 := src / gridConcentration
	s2 := dst / gridConcentration
	if s1 == s2 {
		return append(buf, s1)
	}
	g1, g2 := d.groupOf(s1), d.groupOf(s2)
	if g1 == g2 {
		return append(buf, s1, s2)
	}
	buf = append(buf, s1)
	if gw := d.gateway(g1, g2); gw != s1 {
		buf = append(buf, gw)
	}
	if gw := d.gateway(g2, g1); gw != s2 {
		buf = append(buf, gw)
	}
	return append(buf, s2)
}
