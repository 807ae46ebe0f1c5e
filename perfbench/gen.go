package main

import (
	"fmt"

	"wavepim/internal/cluster"
	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// Every workload input is made here, from the seed alone. The program
// under test receives only what these functions return.

// rng is splitmix64: tiny, seedable and identical on every platform.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{s: seed}
	for _, v := range stream {
		r.s = mix64(r.s ^ mix64(v+0x9e3779b97f4a7c15))
	}
	return r
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// cellOrder is the order paper-sweep visits its n cells. Only the order
// depends on the seed: the cells themselves are the paper's grid, so the
// simulated statistics are the same for every seed.
func cellOrder(seed uint64, n int) []int { return newRNG(seed, 1).perm(n) }

// gateState is gate-level's initial field: a plane wave of seeded
// wavenumber plus a seeded perturbation of every node. The simulated
// timeline and instruction count are the same for every seed; the values,
// and with them the gate count (the slab masks lanes by their data), are
// not.
func gateState(seed uint64, m *mesh.Mesh, mat material.Acoustic) *dg.AcousticState {
	r := newRNG(seed, 2)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, mat, 1+r.intn(3), q)
	for _, sl := range q.Slices() {
		for i := range sl {
			sl[i] += 0.01 * (2*r.unit() - 1)
		}
	}
	return q
}

// jobClass is one equation of the cluster mix. Steps are chosen so every
// class costs about the same worker time (equal work, not equal steps):
// with equal steps the classes differ 5x and the job percentiles swing
// with the mix.
type jobClass struct {
	equation string
	steps    int
}

var jobClasses = []jobClass{
	{"acoustic", 16},
	{"maxwell", 3},
	{"elastic-riemann", 2},
}

const (
	clusterClients   = 2 // closed loop: one outstanding job per client
	freshPerClass    = 3 // fresh jobs per class, per client, per pass
	repeatsPerClient = 2 // exact-content repeats per client, per pass
	maxPasses        = 500
)

// clusterJob is one submission. Repeat >= 0 marks an exact-content
// repeat of the job at that index of the same client's pass stream;
// the client only submits it after the original finished, so the
// coordinator's digest cache must serve it.
type clusterJob struct {
	Spec   cluster.JobSpec
	Repeat int
}

// clusterPass generates one client's jobs for one pass. The seed picks
// the class order, where the repeats fall and what they repeat, and each
// fresh job's CFL number (which keeps every fresh job's content, and so
// its digest, unique within a run). Job ids do not depend on the seed:
// the k-th fresh job of a client's pass always has the same id, so the
// ring places the fresh jobs, and with them the pairs of jobs that meet
// on one worker, the same way for every seed.
func clusterPass(seed uint64, pass, client int) []clusterJob {
	r := newRNG(seed, 3, uint64(pass), uint64(client))
	var classes []int
	for c := range jobClasses {
		for k := 0; k < freshPerClass; k++ {
			classes = append(classes, c)
		}
	}
	order := r.perm(len(classes))
	// Fresh job k of this (pass, client) gets a CFL slot no other fresh
	// job of the run shares; the seed shifts all slots by a fraction of
	// the slot width.
	offset := float64(newRNG(seed, 4).next()%1000) * 1e-8
	fresh := make([]clusterJob, len(classes))
	for k, o := range order {
		slot := (pass*clusterClients+client)*len(classes) + k
		cl := jobClasses[classes[o]]
		fresh[k] = clusterJob{Repeat: -1, Spec: cluster.JobSpec{
			ID:       fmt.Sprintf("p%03d-c%d-f%d", pass, client, k),
			Equation: cl.equation,
			Steps:    cl.steps,
			CFL:      0.2 + float64(slot)*1e-5 + offset,
			Workers:  1,
		}}
	}
	// Insert each repeat after at least one fresh job.
	jobs := []clusterJob{fresh[0]}
	repeatAt := map[int]bool{}
	for len(repeatAt) < repeatsPerClient {
		repeatAt[1+r.intn(len(fresh)-1)] = true
	}
	for k := 1; k < len(fresh); k++ {
		if repeatAt[k] {
			orig := r.intn(len(jobs))
			for jobs[orig].Repeat >= 0 {
				orig = r.intn(len(jobs))
			}
			rep := clusterJob{Spec: jobs[orig].Spec, Repeat: orig}
			rep.Spec.ID = fmt.Sprintf("p%03d-c%d-r%d", pass, client, len(jobs)-k)
			jobs = append(jobs, rep)
		}
		jobs = append(jobs, fresh[k])
	}
	return jobs
}

// warmupJobs are the set-up jobs, one per class, at the default CFL,
// which no generated job uses.
func warmupJobs() []cluster.JobSpec {
	var out []cluster.JobSpec
	for i, cl := range jobClasses {
		out = append(out, cluster.JobSpec{
			ID: fmt.Sprintf("warmup-%d", i), Equation: cl.equation, Steps: cl.steps, Workers: 1,
		})
	}
	return out
}
