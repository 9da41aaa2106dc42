package pathfinder

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
)

// synth builds the circuit and a fabric at channel width w.
func synth(t testing.TB, spec circuits.Spec, w int) (*fpga.Fabric, *circuits.Circuit) {
	t.Helper()
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := fpga.NewFabric(ckt.ArchAt(w))
	if err != nil {
		t.Fatal(err)
	}
	return fab, ckt
}

func specNamed(t testing.TB, name string) circuits.Spec {
	t.Helper()
	spec, ok := circuits.SpecByName(name)
	if !ok {
		t.Fatalf("circuit %s not registered", name)
	}
	return spec
}

// TestHistoryMonotone: history prices are Lagrange multipliers driven by a
// non-negative sub-gradient step, so their sum must never decrease across
// iterations — the invariant that makes the negotiation converge instead
// of oscillate.
func TestHistoryMonotone(t *testing.T) {
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	res, err := Route(fab, ckt.Nets, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no iteration history recorded")
	}
	prev := 0.0
	updates := 0
	for i, st := range res.History {
		if st.HistSum < prev {
			t.Fatalf("iteration %d: HistSum %v < previous %v (history prices must be monotone non-decreasing)", i+1, st.HistSum, prev)
		}
		prev = st.HistSum
		updates += st.PriceUpdates
	}
	if updates == 0 {
		t.Fatal("no price updates at the paper's width: the fixture no longer exercises congestion")
	}
}

// sharedRun is one Route at a circuit's paper width with a stats collector
// attached. The convergence, worker-parity and stats-counter tests assert
// different properties of the same deterministic runs, so each run is
// computed once per test binary and shared.
type sharedRun struct {
	once sync.Once
	res  *Result
	snap stats.Snapshot
	err  error
}

var sharedRuns sync.Map // "<circuit>/<workers>" -> *sharedRun

// routeShared returns the shared Route of spec at its paper width under
// Config{Workers: workers} and its collector snapshot. Callers must not
// modify the Result.
func routeShared(t *testing.T, spec circuits.Spec, workers int) (*Result, stats.Snapshot) {
	t.Helper()
	v, _ := sharedRuns.LoadOrStore(fmt.Sprintf("%s/%d", spec.Name, workers), new(sharedRun))
	run := v.(*sharedRun)
	run.once.Do(func() {
		ckt, err := circuits.Synthesize(spec, 1)
		if err != nil {
			run.err = err
			return
		}
		fab, err := fpga.NewFabric(ckt.ArchAt(spec.PaperIKMB))
		if err != nil {
			run.err = err
			return
		}
		col := stats.New()
		run.res, run.err = Route(fab, ckt.Nets, Config{Workers: workers, Stats: col})
		run.snap = col.Snapshot()
	})
	if run.err != nil {
		t.Fatalf("%s at workers=%d: %v", spec.Name, workers, run.err)
	}
	return run.res, run.snap
}

// paperSpecs lists the circuits the convergence tests route. The default
// run keeps a representative subset (the fourteen-circuit sweep is minutes
// of wall clock and has its own CI job); PATHFINDER_FULL_CIRCUITS=1 covers
// all fourteen, and short mode trims to the two smallest.
func paperSpecs(t *testing.T) []circuits.Spec {
	t.Helper()
	if testing.Short() {
		return []circuits.Spec{specNamed(t, "term1"), specNamed(t, "9symml")}
	}
	if os.Getenv("PATHFINDER_FULL_CIRCUITS") != "" {
		return append(append([]circuits.Spec{}, circuits.Table2Circuits...), circuits.Table3Circuits...)
	}
	return []circuits.Spec{
		specNamed(t, "busc"), specNamed(t, "term1"),
		specNamed(t, "9symml"), specNamed(t, "apex7"),
	}
}

// assertConverged requires zero overflow at spec's paper width and a valid
// tree for every net, checked against a freshly built fabric.
func assertConverged(t *testing.T, spec circuits.Spec, res *Result) {
	t.Helper()
	if !res.Converged {
		t.Fatalf("no convergence at width %d: %d overflowed resources, %d failed nets after %d iterations",
			spec.PaperIKMB, res.Overflow, len(res.FailedNets), res.Iterations)
	}
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	g := fab.Graph()
	for i, net := range ckt.Nets {
		terms := make([]graph.NodeID, len(net.Pins))
		for j, p := range net.Pins {
			terms[j] = fab.PinNode(p)
		}
		if err := graph.ValidateTree(g, res.Trees[i], terms); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
	}
}

// TestConvergesPaperCircuits: the engine must reach zero overflow on every
// paper benchmark at the width the paper's own router achieved, within the
// default iteration budget, and produce valid trees.
func TestConvergesPaperCircuits(t *testing.T) {
	for _, spec := range paperSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, _ := routeShared(t, spec, 0)
			assertConverged(t, spec, res)
		})
	}
}

// TestWorkerParityAcrossCounts: the determinism contract — the full Result
// (trees, iteration trajectory, history) is bit-identical for any worker
// count. CI runs this under -race at GOMAXPROCS 1 and 4.
func TestWorkerParityAcrossCounts(t *testing.T) {
	spec := specNamed(t, "term1")
	want, _ := routeShared(t, spec, 1)
	for _, workers := range []int{2, 4, 8} {
		res, _ := routeShared(t, spec, workers)
		if res.Iterations != want.Iterations || res.Converged != want.Converged {
			t.Fatalf("workers=%d: %d iterations (converged=%v), workers=1 had %d (converged=%v)",
				workers, res.Iterations, res.Converged, want.Iterations, want.Converged)
		}
		for i := range want.Trees {
			if res.Trees[i].Cost != want.Trees[i].Cost {
				t.Fatalf("workers=%d: net %d cost %v != %v", workers, i, res.Trees[i].Cost, want.Trees[i].Cost)
			}
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

// TestStatsCounters: a run with a collector attached reports its
// iterations and pricing work through the observability layer.
func TestStatsCounters(t *testing.T) {
	res, snap := routeShared(t, specNamed(t, "term1"), 0)
	if snap.PathfinderIters != int64(res.Iterations) {
		t.Fatalf("collector saw %d iterations, result says %d", snap.PathfinderIters, res.Iterations)
	}
	if snap.PriceUpdates == 0 {
		t.Fatal("no price updates recorded")
	}
	if snap.NetsRouted != res.NetRoutes {
		t.Fatalf("collector saw %d net routes, result says %d", snap.NetsRouted, res.NetRoutes)
	}
	if snap.SSSPRuns == 0 {
		t.Fatal("no SSSP runs recorded from the iteration workers")
	}
}

// TestChaosPathfinderWorkerError: an error injected inside an iteration
// worker aborts the run deterministically — the lowest affected net index
// wins regardless of which worker goroutine hit the fault first.
func TestChaosPathfinderWorkerError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	spec := specNamed(t, "term1")
	errInjected := errors.New("injected worker fault")
	var firstMsg string
	for run := 0; run < 2; run++ {
		fab, ckt := synth(t, spec, spec.PaperIKMB)
		faultpoint.Arm(faultpoint.PathfinderWorker, faultpoint.Plan{Action: faultpoint.Error, Err: errInjected, Every: 40})
		_, err := Route(fab, ckt.Nets, Config{Workers: 4})
		faultpoint.Reset()
		if !errors.Is(err, errInjected) {
			t.Fatalf("run %d: want the injected error, got %v", run, err)
		}
		if run == 0 {
			firstMsg = err.Error()
		} else if err.Error() != firstMsg {
			t.Fatalf("error not deterministic across runs: %q vs %q", firstMsg, err.Error())
		}
	}
}

// TestChaosPathfinderWorkerPanicFunneled: a panic on an iteration worker
// re-raises on the caller as *faultpoint.GoroutinePanic carrying the
// worker's stack, and the poisoned scratch is discarded, not pooled.
func TestChaosPathfinderWorkerPanicFunneled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	baseline := graph.LiveScratches()
	faultpoint.Arm(faultpoint.PathfinderWorker, faultpoint.Plan{Action: faultpoint.Panic, Nth: 25})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("armed worker panic did not propagate to the caller")
		}
		gp, ok := p.(*faultpoint.GoroutinePanic)
		if !ok {
			t.Fatalf("panic value %T, want *faultpoint.GoroutinePanic", p)
		}
		if _, ok := gp.Value.(*faultpoint.Injected); !ok {
			t.Fatalf("funneled value %T, want *faultpoint.Injected", gp.Value)
		}
		if len(gp.Stack) == 0 {
			t.Fatal("funneled panic lost the worker goroutine's stack")
		}
		if live := graph.LiveScratches(); live > baseline {
			t.Fatalf("panic leaked %d pooled scratches", live-baseline)
		}
	}()
	_, _ = Route(fab, ckt.Nets, Config{Workers: 4})
}

// TestChaosSequentialPassWarmupPanicFunneled: in the one-net-at-a-time
// passes a net's construction fans out over Workers goroutines, so a
// panic in its terminal-tree warm-up must funnel to the caller like an
// iteration worker's: as *faultpoint.GoroutinePanic with the warm-up
// goroutine's stack, with every pooled scratch returned or discarded, and
// with no trace on the next run. The fault is armed at the start of the
// polish pass, which routes every net in index order: each 2-pin net
// before the first multi-pin one costs exactly one search (a
// bidirectional one on the engine goroutine), so the next search is that
// net's first warm-up search.
func TestChaosSequentialPassWarmupPanicFunneled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	cfg := Config{Workers: 2}
	want, err := Route(fab, ckt.Nets, cfg)
	if err != nil || !want.Converged {
		t.Fatalf("reference route failed: %v", err)
	}
	polish := 0
	for i, st := range want.History {
		if st.Overflow == 0 {
			polish = i + 2 // iterations are 1-based; the polish pass is the next one
			break
		}
	}
	if polish == 0 || polish > want.Iterations {
		t.Fatal("reference route never reached its polish pass")
	}
	nth := int64(1)
	for _, n := range ckt.Nets {
		if len(n.Pins) > 2 {
			break
		}
		nth++
	}

	baseline := graph.LiveScratches()
	armed := cfg
	armed.hooks = &debugHooks{afterReprice: func(_ *engine, iter int, _ float64) {
		if iter == polish {
			faultpoint.Arm(faultpoint.SSSPExpand, faultpoint.Plan{Action: faultpoint.Panic, Nth: nth})
		}
	}}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("armed warm-up panic did not propagate to the caller")
			}
			gp, ok := p.(*faultpoint.GoroutinePanic)
			if !ok {
				t.Fatalf("panic value %T, want *faultpoint.GoroutinePanic", p)
			}
			if _, ok := gp.Value.(*faultpoint.Injected); !ok {
				t.Fatalf("funneled value %T, want *faultpoint.Injected", gp.Value)
			}
			if !strings.Contains(string(gp.Stack), "(*scanner).warm") {
				t.Fatalf("panic did not come from the warm-up; worker stack:\n%s", gp.Stack)
			}
		}()
		_, _ = Route(fab, ckt.Nets, armed)
	}()
	if live := graph.LiveScratches(); live != baseline {
		t.Fatalf("scratch leak across warm-up panic: %d live, baseline %d", live, baseline)
	}
	faultpoint.Reset()
	got, err := Route(fab, ckt.Nets, cfg)
	if err != nil {
		t.Fatalf("routing after recovered panic: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("route after the recovered panic differs from the unfaulted one")
	}
}
