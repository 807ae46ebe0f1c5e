package intercon

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wavepim/internal/params"
)

// oracleSchedule is the reference contention loop: the same estimate ->
// occupy -> backpressure rounds as (*Occupancy).Schedule, over a
// map-keyed ledger and a freshly allocated route per transfer. The dense
// ledger must reproduce it bit for bit.
func oracleSchedule(topo Topology, batch []Transfer, busy []float64) Schedule {
	free := make(map[int]float64)
	var out Schedule
	hop := topo.HopLatency()
	for _, tr := range batch {
		path := topo.AppendPath(nil, tr.Src, tr.Dst)
		if len(path) == 0 {
			continue
		}
		payloads := (tr.Words + params.PayloadWords - 1) / params.PayloadWords
		occupy := float64(payloads) * hop
		var start float64
		for i, s := range path {
			if t := free[s] - float64(i)*hop; t > start {
				start = t
			}
		}
		for i, s := range path {
			free[s] = start + float64(i)*hop + occupy
		}
		if busy != nil {
			for _, s := range path {
				busy[s] += occupy
			}
		}
		if start > 0 {
			out.Backpressured++
			out.BackpressureSec += start
		}
		end := start + float64(len(path)-1)*hop + occupy
		if end > out.Makespan {
			out.Makespan = end
		}
		out.EnergyJ += float64(tr.Words*len(path)) * params.SwitchHopEnergyJ
		out.Words += int64(tr.Words)
	}
	return out
}

// leafBatch builds a seeded batch over a leaves-leaf topology. Self
// transfers are kept: they must be skipped identically by both loops.
func leafBatch(r *rand.Rand, leaves, n int) []Transfer {
	batch := make([]Transfer, n)
	for i := range batch {
		src := r.Intn(leaves)
		dst := r.Intn(leaves)
		if r.Intn(4) == 0 { // bias toward short, local routes
			dst = src/4*4 + r.Intn(4)
			if dst >= leaves {
				dst = src
			}
		}
		batch[i] = Transfer{Src: src, Dst: dst, Words: 1 + r.Intn(512)}
	}
	return batch
}

var oracleLeaves = []int{16, 64, 72, 100, 256}

// Differential: on seeded batches over every fabric and leaf count, the
// dense ledger gives bit-identical makespan, energy, backpressure and
// per-switch busy totals to the map-ledger oracle. One Occupancy is reused
// across all fabrics and sizes in both growing and shrinking order, so a
// stale ledger or route buffer would show up as a mismatch.
func TestScheduleMatchesMapLedgerOracle(t *testing.T) {
	var occ Occupancy
	order := append(slices.Clone(oracleLeaves), oracleLeaves...)
	slices.Reverse(order[len(oracleLeaves):])
	for pass, leaves := range order {
		r := rand.New(rand.NewSource(int64(1000*pass + leaves)))
		for _, topo := range allTopos(t, leaves) {
			n := topo.SwitchCount()
			got, want := make([]float64, n), make([]float64, n)
			for b := 0; b < 8; b++ {
				batch := leafBatch(r, leaves, 1+r.Intn(300))
				gs := occ.Schedule(topo, batch, got)
				ws := oracleSchedule(topo, batch, want)
				if !sameSchedule(gs, ws) {
					t.Fatalf("%s/%d batch %d: dense %+v, oracle %+v", topo.Name(), leaves, b, gs, ws)
				}
			}
			for s := range got {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("%s/%d: switch %d busy %v, oracle %v", topo.Name(), leaves, s, got[s], want[s])
				}
			}
			// Without busy tracking the timing is the same.
			batch := leafBatch(r, leaves, 64)
			if gs, ws := occ.Schedule(topo, batch, nil), oracleSchedule(topo, batch, nil); !sameSchedule(gs, ws) {
				t.Fatalf("%s/%d untracked: dense %+v, oracle %+v", topo.Name(), leaves, gs, ws)
			}
		}
	}
}

func sameSchedule(a, b Schedule) bool {
	return math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		math.Float64bits(a.EnergyJ) == math.Float64bits(b.EnergyJ) &&
		math.Float64bits(a.BackpressureSec) == math.Float64bits(b.BackpressureSec) &&
		a.Backpressured == b.Backpressured && a.Words == b.Words
}

// Property: AppendPath onto a non-empty buffer keeps the prefix, and the
// appended tail is exactly the route AppendPath(nil, ...) returns.
func TestAppendPathKeepsPrefix(t *testing.T) {
	for _, leaves := range oracleLeaves {
		r := rand.New(rand.NewSource(int64(leaves)))
		for _, topo := range allTopos(t, leaves) {
			for i := 0; i < 500; i++ {
				src, dst := r.Intn(leaves), r.Intn(leaves)
				prefix := []int{-1, -2 - i, leaves}
				buf := make([]int, len(prefix), len(prefix)+r.Intn(8))
				copy(buf, prefix)
				got := topo.AppendPath(buf, src, dst)
				want := topo.AppendPath(nil, src, dst)
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("%s/%d: AppendPath(%v, %d, %d) = %v, want prefix + %v",
						topo.Name(), leaves, prefix, src, dst, got, want)
				}
			}
		}
	}
}

// A warmed Occupancy schedules without allocating on every fabric.
func TestOccupancyScheduleAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	batch := leafBatch(r, 256, 1024)
	for _, topo := range allTopos(t, 256) {
		var occ Occupancy
		busy := make([]float64, topo.SwitchCount())
		occ.Schedule(topo, batch, busy)
		if a := testing.AllocsPerRun(20, func() { occ.Schedule(topo, batch, busy) }); a != 0 {
			t.Errorf("%s: warmed Schedule makes %v allocs/op, want 0", topo.Name(), a)
		}
	}
}

// BenchmarkOccupancySchedule is the interconnect rung of the performance
// ladder: one warmed ledger pricing a fixed seeded 256-leaf batch, per
// fabric, reported as ns per transfer alongside allocs/op.
func BenchmarkOccupancySchedule(b *testing.B) {
	batch := leafBatch(rand.New(rand.NewSource(1)), 256, 4096)
	for _, name := range Names() {
		topo, err := New(name, 256, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var occ Occupancy
			busy := make([]float64, topo.SwitchCount())
			occ.Schedule(topo, batch, busy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				occ.Schedule(topo, batch, busy)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/transfer")
		})
	}
}
