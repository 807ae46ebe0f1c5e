package intercon

import (
	"math"
	"testing"
	"testing/quick"

	"wavepim/internal/params"
)

func TestHTreeSwitchCount256(t *testing.T) {
	// Section 4.2.2: "in a 256-block memory tile, 4+16+64 = 85 H-tree node
	// switches have to be used" (i.e. 64 S0 + 16 S1 + 4 S2 + 1 root).
	h := NewHTree(256, 4)
	if got := h.SwitchCount(); got != 85 {
		t.Errorf("256-block H-tree has %d switches, want 85", got)
	}
	if h.Name() != "htree" || h.Leaves() != 256 {
		t.Error("metadata wrong")
	}
}

func TestHTreeSwitchCount16(t *testing.T) {
	// Figure 3's example: a 16-block tile has 4 S0 and 1 S1.
	h := NewHTree(16, 4)
	if got := h.SwitchCount(); got != 5 {
		t.Errorf("16-block H-tree has %d switches, want 5", got)
	}
	// A single leaf still hangs off one root switch.
	if one := NewHTree(1, 4); one.SwitchCount() != 1 || one.EgressHops() != 1 || one.AppendPath(nil, 0, 0) != nil {
		t.Errorf("1-leaf H-tree: %d switches, %d egress hops", one.SwitchCount(), one.EgressHops())
	}
}

func TestHTreePathBlock0ToBlock5(t *testing.T) {
	// Figure 3's walkthrough: Block 0 -> Block 5 passes S0(0), S1, S0(1):
	// three switches, carried by memcpy instructions I1, I2, I3.
	h := NewHTree(16, 4)
	path := h.AppendPath(nil, 0, 5)
	if len(path) != 3 {
		t.Fatalf("path 0->5 has %d switches, want 3 (%v)", len(path), path)
	}
	// First and last are level-0 switches of the two endpoints.
	if path[0] != 0 {
		t.Errorf("first hop should be block 0's S0 (id 0), got %d", path[0])
	}
	if path[2] != 1 {
		t.Errorf("last hop should be block 5's S0 (id 1), got %d", path[2])
	}
}

func TestHTreeSiblingPathIsOneSwitch(t *testing.T) {
	// Blocks under the same S0 talk through just that switch — the paper's
	// argument for multi-block elements ("the data will only pass through
	// one S0 H-tree switch").
	h := NewHTree(256, 4)
	path := h.AppendPath(nil, 8, 11)
	if len(path) != 1 {
		t.Errorf("sibling path has %d switches, want 1 (%v)", len(path), path)
	}
}

func TestHTreePathSymmetry(t *testing.T) {
	h := NewHTree(64, 4)
	f := func(a, b uint8) bool {
		src, dst := int(a)%64, int(b)%64
		p1, p2 := h.AppendPath(nil, src, dst), h.AppendPath(nil, dst, src)
		if len(p1) != len(p2) {
			return false
		}
		// Reverse of p2 equals p1.
		for i := range p1 {
			if p1[i] != p2[len(p2)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHTreePathOddLength(t *testing.T) {
	// Up-then-down routes always traverse an odd number of switches.
	h := NewHTree(256, 4)
	for _, pair := range [][2]int{{0, 1}, {0, 5}, {0, 255}, {17, 200}, {100, 101}} {
		p := h.AppendPath(nil, pair[0], pair[1])
		if len(p)%2 != 1 {
			t.Errorf("path %v has even length %d: %v", pair, len(p), p)
		}
	}
}

func TestBusAlwaysOneSwitch(t *testing.T) {
	b := NewBus(256)
	if b.SwitchCount() != 1 || b.Name() != "bus" {
		t.Error("bus metadata wrong")
	}
	if p := b.AppendPath(nil, 3, 250); len(p) != 1 || p[0] != 0 {
		t.Errorf("bus path %v", p)
	}
	if p := b.AppendPath(nil, 7, 7); p != nil {
		t.Errorf("self path should be empty, got %v", p)
	}
}

func TestLeakageHTreeVsBus(t *testing.T) {
	h, b := NewHTree(256, 4), NewBus(256)
	if h.LeakagePowerW() <= b.LeakagePowerW() {
		t.Error("H-tree leakage must exceed bus leakage (Section 4.2.2)")
	}
	// The 256-block tile H-tree leakage equals Table 3's 107.13 mW.
	if math.Abs(h.LeakagePowerW()-params.PowerHTreeSwitchesW) > 1e-9 {
		t.Errorf("256-block H-tree leakage %g W, want %g W", h.LeakagePowerW(), params.PowerHTreeSwitchesW)
	}
}

func TestScheduleParallelVsSerial(t *testing.T) {
	// The Figure 3 bus example: Block 0->2 and Block 5->7 run concurrently
	// on the H-tree but serialize on the bus.
	batch := []Transfer{{Src: 0, Dst: 2, Words: 32}, {Src: 5, Dst: 7, Words: 32}}
	h := ScheduleBatch(NewHTree(16, 4), batch)
	b := ScheduleBatch(NewBus(16), batch)
	if h.Makespan >= b.Makespan {
		t.Errorf("H-tree makespan %g should beat bus %g on disjoint transfers", h.Makespan, b.Makespan)
	}
	// Bus serializes exactly: makespan = 2 x single-transfer duration.
	single := ScheduleBatch(NewBus(16), batch[:1])
	if math.Abs(b.Makespan-2*single.Makespan) > 1e-12 {
		t.Errorf("bus makespan %g, want exactly 2x %g", b.Makespan, single.Makespan)
	}
	// H-tree runs them fully in parallel (disjoint S0 subtrees).
	hSingle := ScheduleBatch(NewHTree(16, 4), batch[:1])
	if math.Abs(h.Makespan-hSingle.Makespan) > 1e-12 {
		t.Errorf("htree makespan %g, want %g (full overlap)", h.Makespan, hSingle.Makespan)
	}
}

func TestHTreeNeverSlowerThanBus(t *testing.T) {
	// Property: for any batch, the H-tree makespan is <= the bus makespan
	// plus route-depth fill overhead. With neighbor-heavy traffic it is
	// strictly smaller.
	h := NewHTree(64, 4)
	b := NewBus(64)
	f := func(seeds [6]uint16) bool {
		var batch []Transfer
		for _, s := range seeds {
			src := int(s) % 64
			dst := (src + 1 + int(s>>8)%4) % 64
			batch = append(batch, Transfer{Src: src, Dst: dst, Words: 32})
		}
		hs := ScheduleBatch(h, batch)
		bs := ScheduleBatch(b, batch)
		// Fill overhead bound: deepest route adds (hops-1) word-times per
		// transfer.
		bound := bs.Makespan + float64(len(batch)*6)*params.SwitchHopLatencySec
		return hs.Makespan <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScheduleEnergyAccounting(t *testing.T) {
	h := NewHTree(16, 4)
	s := ScheduleBatch(h, []Transfer{{Src: 0, Dst: 5, Words: 10}})
	want := float64(10*3) * params.SwitchHopEnergyJ // 3 hops x 10 words
	if math.Abs(s.EnergyJ-want) > 1e-20 {
		t.Errorf("energy %g want %g", s.EnergyJ, want)
	}
	if s.Words != 10 {
		t.Errorf("words %d", s.Words)
	}
}

func TestScheduleSelfTransferFree(t *testing.T) {
	s := ScheduleBatch(NewHTree(16, 4), []Transfer{{Src: 3, Dst: 3, Words: 32}})
	if s != (Schedule{}) {
		t.Errorf("self transfer should be free: %+v", s)
	}
}

func TestHTreeFanout8(t *testing.T) {
	// The paper: fanout "can be higher when customizing PIM systems for
	// larger-scale models". 64 leaves with fanout 8: 8 + 1 switches.
	h := NewHTree(64, 8)
	if got := h.SwitchCount(); got != 9 {
		t.Errorf("fanout-8 switch count %d, want 9", got)
	}
	if p := h.AppendPath(nil, 0, 7); len(p) != 1 {
		t.Errorf("blocks 0-7 share one fanout-8 switch, path %v", p)
	}
}

// Every fanout, power of two or not, routes from the source's leaf switch
// up to the LCA and back down to the destination's leaf switch.
func TestHTreeRouteShapeAcrossFanouts(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 5, 8} {
		h := NewHTree(100, fanout)
		for src := 0; src < 100; src++ {
			for dst := 0; dst < 100; dst++ {
				p := h.AppendPath(nil, src, dst)
				if src == dst {
					if len(p) != 0 {
						t.Fatalf("fanout %d: self route %d = %v, want empty", fanout, src, p)
					}
					continue
				}
				if len(p)%2 != 1 || p[0] != src/fanout || p[len(p)-1] != dst/fanout {
					t.Fatalf("fanout %d: route %d->%d = %v is not leaf switch up, LCA, down to leaf switch",
						fanout, src, dst, p)
				}
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHTree(0, 4) },
		func() { NewHTree(16, 1) },
		func() { NewBus(0) },
		func() { NewHTree(16, 4).AppendPath(nil, 16, 0) },
		func() { NewBus(4).AppendPath(nil, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
