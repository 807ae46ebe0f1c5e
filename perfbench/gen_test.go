package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"wavepim/internal/cluster"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
)

// clusterPlan is the whole job sequence a run with this seed submits in
// its first passes.
func clusterPlan(seed uint64, passes int) [][]clusterJob {
	var out [][]clusterJob
	for p := 0; p < passes; p++ {
		for c := 0; c < clusterClients; c++ {
			out = append(out, clusterPass(seed, p, c))
		}
	}
	return out
}

func TestGeneratorsRepeatForASeed(t *testing.T) {
	if a, b := clusterPlan(7, 5), clusterPlan(7, 5); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different cluster job sequences")
	}
	if a, b := cellOrder(7, 60), cellOrder(7, 60); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different cell orders")
	}
	m := mesh.New(gateRefine, gateNp, true)
	if a, b := gateState(7, m, gateMat), gateState(7, m, gateMat); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different gate-level states")
	}
}

func TestGeneratorsDifferAcrossSeeds(t *testing.T) {
	if a, b := clusterPlan(7, 5), clusterPlan(8, 5); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same cluster job sequence")
	}
	if a, b := cellOrder(7, 60), cellOrder(8, 60); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same cell order")
	}
	m := mesh.New(gateRefine, gateNp, true)
	if a, b := gateState(7, m, gateMat), gateState(8, m, gateMat); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same gate-level state")
	}
}

// TestClusterSpecsValidate checks every generated spec against the
// daemons' submission rules, the pass shape (fixed class counts, so
// passes are equal work), repeats that point at earlier fresh jobs of the
// same stream, and fresh content unique across the longest run.
func TestClusterSpecsValidate(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 1 << 63} {
		digests := map[uint64]string{}
		for _, w := range warmupJobs() {
			if err := validateSpec(w); err != nil {
				t.Fatal(err)
			}
			digests[w.Digest()] = w.ID
		}
		for p := 0; p < maxPasses; p++ {
			for c := 0; c < clusterClients; c++ {
				jobs := clusterPass(seed, p, c)
				if len(jobs) != len(jobClasses)*freshPerClass+repeatsPerClient {
					t.Fatalf("seed %d pass %d client %d: %d jobs", seed, p, c, len(jobs))
				}
				perClass := map[string]int{}
				for i, j := range jobs {
					if err := validateSpec(j.Spec); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if j.Repeat >= 0 {
						if j.Repeat >= i || jobs[j.Repeat].Repeat >= 0 {
							t.Fatalf("seed %d: job %s repeats index %d", seed, j.Spec.ID, j.Repeat)
						}
						if jobs[j.Repeat].Spec.Digest() != j.Spec.Digest() {
							t.Fatalf("seed %d: repeat %s differs in content", seed, j.Spec.ID)
						}
						continue
					}
					perClass[j.Spec.Equation]++
					d := j.Spec.Digest()
					if prev, dup := digests[d]; dup {
						t.Fatalf("seed %d: fresh jobs %s and %s share content", seed, prev, j.Spec.ID)
					}
					digests[d] = j.Spec.ID
				}
				for _, cl := range jobClasses {
					if perClass[cl.equation] != freshPerClass {
						t.Fatalf("seed %d: %d fresh %s jobs", seed, perClass[cl.equation], cl.equation)
					}
				}
			}
		}
	}
}

func TestGateStateIsFinite(t *testing.T) {
	q := gateState(3, mesh.New(gateRefine, gateNp, true), gateMat)
	for _, sl := range q.Slices() {
		for _, v := range sl {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite initial value")
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestEndToEndMatchesManifest: the end-to-end metrics a run reports are
// exactly those BENCHMARK.json lists, with its units.
func TestEndToEndMatchesManifest(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	ps := []pass{{Wall: 1, CPU: 1, Alloc: 1, PeakHeap: 1}}
	if _, err := reported(endToEnd([]float64{1}, ps, ps, passMs(ps)), man.EndToEnd, false); err != nil {
		t.Fatal(err)
	}
	if _, err := reported(map[string]metric{"no.such_layer": {1, "ms"}}, man.PerLayer, true); err == nil {
		t.Fatal("an undeclared layer metric was accepted")
	}
}

// validateSpec applies the checks both daemons make on submission, plus
// the benchmark's own contract: one engine worker per job and a stable
// CFL number.
func validateSpec(s cluster.JobSpec) error {
	if _, ok := cluster.EquationOf(s.Equation); !ok {
		return fmt.Errorf("unknown equation %q", s.Equation)
	}
	if s.Topology != "" {
		if _, err := chip.ParseInterconnect(s.Topology); err != nil {
			return err
		}
	}
	if _, err := cluster.ParsePriority(s.Priority); err != nil {
		return err
	}
	if id, err := cluster.NormalizeJobID(s.ID); err != nil || id != s.ID {
		return fmt.Errorf("job id %q is not canonical (%v)", s.ID, err)
	}
	if s.Steps <= 0 || s.Workers != 1 {
		return fmt.Errorf("job %s: steps %d, workers %d", s.ID, s.Steps, s.Workers)
	}
	if !(s.CFL >= 0 && s.CFL < 0.3) { // 0 selects the daemons' default
		return fmt.Errorf("job %s: CFL %v outside [0, 0.3)", s.ID, s.CFL)
	}
	return nil
}
