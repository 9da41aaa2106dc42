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
				res, _, err := RouteWithFabricCtx(ctx, ckt, spec.PaperIKMB, opts)
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
