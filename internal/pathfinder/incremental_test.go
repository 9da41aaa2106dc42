package pathfinder

import (
	"fmt"
	"testing"

	"fpgarouter/internal/graph"
)

// TestIncrementalParityWithFullBookkeeping runs the engine with debug hooks
// that rebuild the pricing and usage state from scratch after every
// reprice and reduce, asserting the delta bookkeeping is bit-equal to the
// full-rebuild oracle: the sharedPrice array, the priced-edge list
// (contents and order), and the usage recount. CI runs this under -race at
// Workers 1 and 4.
func TestIncrementalParityWithFullBookkeeping(t *testing.T) {
	names := []string{"term1", "9symml"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				spec := specNamed(t, name)
				fab, ckt := synth(t, spec, spec.PaperIKMB)
				var mark []uint32
				var ep uint32
				hooks := &debugHooks{
					afterReprice: func(e *engine, iter int, presFac float64) {
						var wantPriced []graph.EdgeID
						for id, r := range e.edgeRes {
							p := e.hist[r] + presFac*float64(e.usage[r])
							if e.sharedPrice[id] != p {
								t.Fatalf("iter %d: sharedPrice[%d] = %v, full reprice computes %v", iter, id, e.sharedPrice[id], p)
							}
							if p != 0 {
								wantPriced = append(wantPriced, graph.EdgeID(id))
							}
						}
						if len(e.priced) != len(wantPriced) {
							t.Fatalf("iter %d: priced list has %d edges, full reprice has %d", iter, len(e.priced), len(wantPriced))
						}
						for i, id := range wantPriced {
							if e.priced[i] != id {
								t.Fatalf("iter %d: priced[%d] = %d, full reprice has %d", iter, i, e.priced[i], id)
							}
						}
					},
					afterReduce: func(e *engine, iter int) {
						if mark == nil {
							mark = make([]uint32, len(e.usage))
						}
						want := make([]int32, len(e.usage))
						for idx := range e.trees {
							ep++
							for _, id := range e.trees[idx].Edges {
								r := e.edgeRes[id]
								if mark[r] == ep {
									continue
								}
								mark[r] = ep
								want[r]++
							}
						}
						for r := range want {
							if e.usage[r] != want[r] {
								t.Fatalf("iter %d: usage[%d] = %d, full recount gives %d", iter, r, e.usage[r], want[r])
							}
						}
					},
				}
				res, err := Route(fab, ckt.Nets, Config{Workers: workers, hooks: hooks})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("no convergence at width %d after %d iterations (overflow %d)", spec.PaperIKMB, res.Iterations, res.Overflow)
				}
				if res.IncrementalReroutes == 0 || res.EdgesRetained == 0 {
					t.Fatalf("parity run never exercised partial rip-up: %d reconnects, %d edges retained", res.IncrementalReroutes, res.EdgesRetained)
				}
			})
		}
	}
}

// TestIncrementalConvergesPaperCircuits: partial rip-up must reach zero
// overflow at the paper widths, produce valid trees, and actually retain
// fragments (otherwise it silently degraded to full reroute). It shares
// TestConvergesPaperCircuits' circuit list and runs, so the CI sweep
// asserts both on all fourteen circuits without routing any twice.
func TestIncrementalConvergesPaperCircuits(t *testing.T) {
	for _, spec := range paperSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, _ := routeShared(t, spec, 0)
			assertConverged(t, spec, res)
			if res.EdgesRetained == 0 {
				t.Fatal("run retained zero edges: partial rip-up never engaged")
			}
		})
	}
}

// TestIncrementalWorkerParityAcrossCounts extends the determinism contract
// to the rip-up accounting: trees, iteration history and the
// ripped/retained/reconnect totals are bit-identical at every worker
// count, because rip decisions read only the frozen usage array and the
// counters are order-free integer sums drained after the barrier.
func TestIncrementalWorkerParityAcrossCounts(t *testing.T) {
	spec := specNamed(t, "term1")
	want, _ := routeShared(t, spec, 1)
	for _, workers := range []int{2, 4, 8} {
		res, _ := routeShared(t, spec, workers)
		if res.Iterations != want.Iterations || res.Converged != want.Converged {
			t.Fatalf("workers=%d: %d iterations (converged=%v), workers=1 had %d (converged=%v)",
				workers, res.Iterations, res.Converged, want.Iterations, want.Converged)
		}
		if res.EdgesRipped != want.EdgesRipped || res.EdgesRetained != want.EdgesRetained || res.IncrementalReroutes != want.IncrementalReroutes {
			t.Fatalf("workers=%d: rip-up accounting (%d ripped, %d retained, %d reconnects) != workers=1 (%d, %d, %d)",
				workers, res.EdgesRipped, res.EdgesRetained, res.IncrementalReroutes,
				want.EdgesRipped, want.EdgesRetained, want.IncrementalReroutes)
		}
		for i := range want.Trees {
			if len(res.Trees[i].Edges) != len(want.Trees[i].Edges) {
				t.Fatalf("workers=%d: net %d has %d edges, want %d", workers, i, len(res.Trees[i].Edges), len(want.Trees[i].Edges))
			}
			for j, id := range want.Trees[i].Edges {
				if res.Trees[i].Edges[j] != id {
					t.Fatalf("workers=%d: net %d edge %d is %d, want %d", workers, i, j, res.Trees[i].Edges[j], id)
				}
			}
		}
		for i, st := range want.History {
			if res.History[i] != st {
				t.Fatalf("workers=%d: iteration %d stat %+v != %+v", workers, i+1, res.History[i], st)
			}
		}
	}
}

// TestIncrementalStatsCounters: the observability layer sees the same
// rip-up accounting the Result reports, plus the delta-reduce savings.
func TestIncrementalStatsCounters(t *testing.T) {
	res, snap := routeShared(t, specNamed(t, "term1"), 0)
	if snap.IncrementalReroutes != res.IncrementalReroutes {
		t.Fatalf("collector saw %d reconnects, result says %d", snap.IncrementalReroutes, res.IncrementalReroutes)
	}
	if snap.EdgesRipped != res.EdgesRipped || snap.EdgesRetained != res.EdgesRetained {
		t.Fatalf("collector saw %d/%d ripped/retained, result says %d/%d",
			snap.EdgesRipped, snap.EdgesRetained, res.EdgesRipped, res.EdgesRetained)
	}
	if snap.ReduceEdgesSkipped == 0 {
		t.Fatal("delta reduce recorded no skipped edges")
	}
}
