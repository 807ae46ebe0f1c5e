package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pass is the cost of one repetition of a workload's fixed work.
type pass struct {
	Wall     float64 // seconds
	CPU      float64 // process user+system seconds
	Alloc    uint64  // bytes allocated (TotalAlloc delta)
	PeakHeap uint64  // highest sampled heap-object bytes during the pass
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the highest heap-object size seen while it runs.
// runtime/metrics reads do not stop the world, so sampling every
// millisecond costs the measured work almost nothing.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.observe()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	b := heapBytes()
	for {
		old := h.peak.Load()
		if b <= old || h.peak.CompareAndSwap(old, b) {
			return
		}
	}
}

// Stop ends sampling and returns the peak.
func (h *heapSampler) Stop() uint64 {
	h.observe()
	close(h.stop)
	h.wg.Wait()
	return h.peak.Load()
}

// measurePass runs fn once and returns its cost.
func measurePass(fn func() error) (pass, error) {
	// Start every pass from the same heap state. The second collection
	// frees what sync.Pool kept as victims through the first; without it
	// the heap goal, and with it the peak, sometimes starts a pass a
	// quarter higher.
	runtime.GC()
	runtime.GC()
	hs := startHeapSampler()
	a0, c0 := totalAlloc(), cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1, a1 := cpuSeconds(), totalAlloc()
	peak := hs.Stop()
	return pass{Wall: wall, CPU: c1 - c0, Alloc: a1 - a0, PeakHeap: peak}, err
}

// runPasses repeats fn (whole passes only) until another pass would
// overrun budget, with at least `least` passes. fn receives the pass index;
// after, when non-nil, runs outside the measurement once each pass ends
// (output checks go there).
func runPasses(budget time.Duration, least int, fn, after func(i int) error) ([]pass, error) {
	var out []pass
	start := time.Now()
	for i := 0; ; i++ {
		if i >= least {
			last := time.Duration(out[len(out)-1].Wall * float64(time.Second))
			if time.Since(start)+last > budget {
				return out, nil
			}
		}
		p, err := measurePass(func() error { return fn(i) })
		if err != nil {
			return out, err
		}
		out = append(out, p)
		if after != nil {
			if err := after(i); err != nil {
				return out, err
			}
		}
	}
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perPass extracts one number per pass (or per per-pass record).
func perPass[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func walls(ps []pass) []float64 { return perPass(ps, func(p pass) float64 { return p.Wall }) }

// passMs is the job latency sample of workloads whose job is one pass.
func passMs(ps []pass) []float64 { return perPass(ps, func(p pass) float64 { return p.Wall * 1e3 }) }

const mib = 1 << 20

// minPasses is the fewest passes an untraced run measures. A traced run
// splits its budget into an untraced and a traced half of at least two
// passes each, so it takes about as long as an untraced run.
const minPasses = 3

// endToEnd assembles the end-to-end metrics: setup is one sample per
// set-up, jobMs one latency per job, and heap the passes whose peak heap
// counts. A workload whose program keeps memory from pass to pass passes
// a fixed window of passes as heap, so that a faster program, which fits
// more passes into the budget, does not read as a bigger one.
func endToEnd(setup []float64, ps, heap []pass, jobMs []float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"run_s":        {median(walls(ps)), "s"},
		"cpu_s":        {median(perPass(ps, func(p pass) float64 { return p.CPU })), "s"},
		"alloc_mb":     {median(perPass(ps, func(p pass) float64 { return float64(p.Alloc) / mib })), "MB"},
		"peak_heap_mb": {median(perPass(heap, func(p pass) float64 { return float64(p.PeakHeap) / mib })), "MB"},
		"job_p50_ms":   {quantile(jobMs, 0.50), "ms"},
		"job_p95_ms":   {quantile(jobMs, 0.95), "ms"},
	}
}
