package router

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// TestRouteParityAcrossWorkers asserts the router-level tentpole guarantee:
// Route returns a byte-identical Result at every CandidateWorkers setting,
// for every iterated algorithm, in both admission modes, at several widths
// (including widths tight enough to fail and exercise FailedNets). Run
// under -race this is the end-to-end proof for the parallel candidate scan.
func TestRouteParityAcrossWorkers(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	for _, alg := range []string{AlgIKMB, AlgISPH, AlgIZEL, AlgIDOM} {
		for _, single := range []bool{false, true} {
			for _, w := range []int{3, 5, 8} {
				t.Run(fmt.Sprintf("%s/single=%v/w=%d", alg, single, w), func(t *testing.T) {
					run := func(workers int) (*Result, error) {
						return Route(ckt, w, Options{
							Algorithm:        alg,
							MaxPasses:        4,
							SingleStep:       single,
							CandidateWorkers: workers,
						})
					}
					refRes, refErr := run(1)
					for _, cw := range []int{0, 2, 8} {
						res, err := run(cw)
						if !errors.Is(err, refErr) && (err == nil) != (refErr == nil) {
							t.Fatalf("workers=%d err %v, sequential err %v", cw, err, refErr)
						}
						if !reflect.DeepEqual(res, refRes) {
							t.Fatalf("workers=%d Result diverges from sequential", cw)
						}
					}
				})
			}
		}
	}
}

// TestRouteParityLazyScan asserts the lazy scan's exactness contract end
// to end: Route returns a byte-identical Result with LazyScan on versus
// off, at worker counts {1, 4} (plus the default and the max fan-out), for
// every iterated algorithm in both admission modes, on circuits where
// stale gains stay valid upper bounds (these; see core.lazyQueue for the
// contract's limits — TestLazyScanWorkerInvarianceBusc covers the
// unconditional half on a paper circuit). Run under -race this is the
// whole-circuit proof for the lazy candidate scan.
func TestRouteParityLazyScan(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	for _, alg := range []string{AlgIKMB, AlgISPH, AlgIZEL, AlgIDOM} {
		for _, single := range []bool{false, true} {
			for _, w := range []int{3, 5} {
				t.Run(fmt.Sprintf("%s/single=%v/w=%d", alg, single, w), func(t *testing.T) {
					run := func(lazy bool, workers int) (*Result, error) {
						return Route(ckt, w, Options{
							Algorithm:        alg,
							MaxPasses:        4,
							SingleStep:       single,
							CandidateWorkers: workers,
							LazyScan:         lazy,
						})
					}
					refRes, refErr := run(false, 1)
					for _, cw := range []int{1, 4, 0, 8} {
						res, err := run(true, cw)
						if !errors.Is(err, refErr) && (err == nil) != (refErr == nil) {
							t.Fatalf("lazy workers=%d err %v, exhaustive err %v", cw, err, refErr)
						}
						if !reflect.DeepEqual(res, refRes) {
							t.Fatalf("lazy workers=%d Result diverges from exhaustive sequential", cw)
						}
					}
				})
			}
		}
	}
}

// TestRouteParityCriticalNets covers the mixed path: critical nets routed
// with the arborescence algorithm alongside IKMB for the rest.
func TestRouteParityCriticalNets(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 4)
	opts := Options{MaxPasses: 6, CriticalNets: []int{0, 3, 5}}
	ref, refErr := Route(ckt, 8, opts)
	if refErr != nil {
		t.Fatal(refErr)
	}
	for _, cw := range []int{0, 2, 8} {
		o := opts
		o.CandidateWorkers = cw
		res, err := Route(ckt, 8, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", cw, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d Result diverges from sequential", cw)
		}
	}
}

// TestLazyScanWorkerInvarianceBusc asserts, on a real paper circuit, the
// unconditional half of the lazy scan's contract: the lazy route's Result
// AND its lazy counters are byte-identical at every CandidateWorkers
// setting (the burst size is fixed, so the evaluated set never depends on
// fan-out), and the evaluation saving is real (EvalsSaved > 0 with rounds
// actually served lazily). Identity against the exhaustive scan is NOT
// asserted here: on congestion-weighted fabrics stale gains are not always
// upper bounds, so busc may admit different Steiner points lazily — see
// core.lazyQueue and DESIGN.md §5.
func TestLazyScanWorkerInvarianceBusc(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	run := func(workers int) (*Result, stats.Snapshot) {
		col := stats.New()
		ctx := NewContext(col)
		defer ctx.Close()
		res, _, err := RouteWithFabricContext(nil, ctx, ckt, 10, Options{
			MaxPasses:        4,
			SingleStep:       true,
			CandidateWorkers: workers,
			LazyScan:         true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, col.Snapshot()
	}
	refRes, refSnap := run(1)
	if refSnap.EvalsSaved <= 0 || refSnap.LazyHits <= 0 {
		t.Fatalf("lazy scan saved nothing on busc: hits %d, saved %d", refSnap.LazyHits, refSnap.EvalsSaved)
	}
	for _, cw := range []int{4, 0} {
		res, snap := run(cw)
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("workers=%d lazy Result diverges from workers=1", cw)
		}
		if snap.LazyHits != refSnap.LazyHits || snap.FullRescans != refSnap.FullRescans ||
			snap.EvalsSaved != refSnap.EvalsSaved || snap.CandidateEvals != refSnap.CandidateEvals {
			t.Fatalf("workers=%d lazy counters {hits %d rescans %d saved %d evals %d} != workers=1 {%d %d %d %d}",
				cw, snap.LazyHits, snap.FullRescans, snap.EvalsSaved, snap.CandidateEvals,
				refSnap.LazyHits, refSnap.FullRescans, refSnap.EvalsSaved, refSnap.CandidateEvals)
		}
	}
}

// TestSSSPCountersWorkerInvariant: fanning a net's construction out over
// worker goroutines moves shortest-path searches off the routing context's
// scratch — the terminal-tree warm-up and any candidate-rooted search run
// on the candidate scan's forks — but never changes which searches run.
// The fork counts reach the collector through core.Stats, so the SSSP and
// candidate counters of a route are the same at every worker count: in
// the sequential router across CandidateWorkers, and in the pathfinder
// across NetWorkers, whose one-net-at-a-time passes fan each net out over
// NetWorkers goroutines. busc routes every net on its first try at its
// paper width; a net whose pins are disconnected warms every terminal
// tree before the base heuristic reports the failure, so routes with
// failed nets can count more searches at higher worker counts.
func TestSSSPCountersWorkerInvariant(t *testing.T) {
	for _, c := range []struct {
		name, circuit string
		ref, other    Options
	}{
		{"sequential", "busc", Options{CandidateWorkers: 1}, Options{CandidateWorkers: 4}},
		{"parallel", "term1", Options{Parallel: true, NetWorkers: 1}, Options{Parallel: true, NetWorkers: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, ok := circuits.SpecByName(c.circuit)
			if !ok {
				t.Fatalf("%s spec missing", c.circuit)
			}
			ckt := synth(t, spec, 1)
			run := func(opts Options) (*Result, stats.Snapshot) {
				col := stats.New()
				ctx := NewContext(col)
				defer ctx.Close()
				res, _, err := RouteWithFabricContext(nil, ctx, ckt, spec.PaperIKMB, opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				return res, col.Snapshot()
			}
			refRes, ref := run(c.ref)
			res, got := run(c.other)
			if !reflect.DeepEqual(res, refRes) {
				t.Fatal("Result diverges across worker counts")
			}
			if got.ParallelScans == 0 {
				t.Fatal("no candidate scan fanned out: the fan-out path went untested")
			}
			if got.SSSPRuns != ref.SSSPRuns || got.HeapPushes != ref.HeapPushes ||
				got.CandidateEvals != ref.CandidateEvals || got.SteinerPoints != ref.SteinerPoints {
				t.Fatalf("counters {SSSP %d, pushes %d, evals %d, points %d} != single-worker {%d, %d, %d, %d}",
					got.SSSPRuns, got.HeapPushes, got.CandidateEvals, got.SteinerPoints,
					ref.SSSPRuns, ref.HeapPushes, ref.CandidateEvals, ref.SteinerPoints)
			}
		})
	}
}
