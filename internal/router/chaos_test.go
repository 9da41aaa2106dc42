// Chaos tests of the router's fault-tolerance layer: armed fault points
// (internal/faultpoint) drive panics and injected errors through the hot
// paths, and the assertions check the promises made by this PR — helper
// goroutine panics funnel to the owner with their stacks, interrupted runs
// surrender well-formed partial results, and no pooled scratch leaks across
// any failure path. Everything here is meant to run under -race (see the CI
// chaos job and `make chaos`).
package router

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/graph"
)

// checkPartialInvariants asserts a partial Result is self-consistent: the
// routed-net count matches the trees present, the failure list covers
// exactly the treeless nets without duplicates, and the aggregate metrics
// are sums over the routed nets.
func checkPartialInvariants(t *testing.T, res *Result, numNets int) {
	t.Helper()
	if !res.Partial {
		t.Fatalf("result not marked Partial: %+v", res)
	}
	if res.Routed {
		t.Fatal("partial result claims Routed")
	}
	if res.MaxUtil != 0 {
		t.Fatalf("partial result has MaxUtil %d (not computed on partials)", res.MaxUtil)
	}
	if len(res.Nets) != numNets {
		t.Fatalf("partial has %d net slots, circuit has %d", len(res.Nets), numNets)
	}
	failed := make(map[int]bool, len(res.FailedNets))
	for _, idx := range res.FailedNets {
		if idx < 0 || idx >= numNets {
			t.Fatalf("failed net index %d out of range", idx)
		}
		if failed[idx] {
			t.Fatalf("failed net %d listed twice", idx)
		}
		failed[idx] = true
	}
	routed := 0
	var wl, mp float64
	for i, nr := range res.Nets {
		hasTree := len(nr.Tree.Edges) > 0
		if hasTree == failed[i] {
			t.Fatalf("net %d: tree=%v but in failed set=%v", i, hasTree, failed[i])
		}
		if hasTree {
			routed++
			wl += nr.Wirelength
			mp += nr.MaxPath
		} else if nr.Wirelength != 0 || nr.MaxPath != 0 {
			t.Fatalf("treeless net %d carries metrics %v/%v", i, nr.Wirelength, nr.MaxPath)
		}
	}
	if routed != res.RoutedNets {
		t.Fatalf("RoutedNets %d, but %d nets carry trees", res.RoutedNets, routed)
	}
	if routed+len(res.FailedNets) != numNets {
		t.Fatalf("routed %d + failed %d != %d nets", routed, len(res.FailedNets), numNets)
	}
	if wl != res.Wirelength || mp != res.MaxPathSum {
		t.Fatalf("aggregates %v/%v, per-net sums %v/%v", res.Wirelength, res.MaxPathSum, wl, mp)
	}
}

// findUnroutableWidth walks widths downward until Route fails, returning
// the first failing width and its partial result.
func findUnroutableWidth(t *testing.T, ckt *circuits.Circuit, from int, opts Options) (int, *Result, error) {
	t.Helper()
	for w := from; w >= 1; w-- {
		res, err := Route(ckt, w, opts)
		if err != nil {
			return w, res, err
		}
	}
	t.Fatal("circuit routed at every width down to 1; no unroutable case to test")
	return 0, nil, nil
}

// TestChaosPartialResultOnUnroutable: ErrUnroutable now carries the best
// pass's partial result instead of a bare error, and that snapshot is
// well-formed.
func TestChaosPartialResultOnUnroutable(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	_, res, err := findUnroutableWidth(t, ckt, 7, Options{MaxPasses: 3})
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("want ErrUnroutable, got %v", err)
	}
	if res == nil {
		t.Fatal("unroutable run returned no partial result")
	}
	checkPartialInvariants(t, res, len(ckt.Nets))
	if len(res.FailedNets) == 0 {
		t.Fatal("unroutable partial lists no failed nets")
	}
}

// TestFaultPassBoundaryErrorCarriesBestPartial: an error injected at a
// pass boundary surfaces from Route together with the best partial result
// accumulated by the passes before it.
func TestFaultPassBoundaryErrorCarriesBestPartial(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	wFail, _, err := findUnroutableWidth(t, ckt, 7, Options{MaxPasses: 2})
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("probe for a failing width errored oddly: %v", err)
	}
	errInjected := errors.New("injected pass-boundary fault")
	faultpoint.Arm(faultpoint.PassBoundary, faultpoint.Plan{Action: faultpoint.Error, Err: errInjected, Nth: 2})
	res, err := Route(ckt, wFail, Options{MaxPasses: 3})
	if !errors.Is(err, errInjected) {
		t.Fatalf("want the injected error, got %v", err)
	}
	if res == nil {
		t.Fatal("injected pass-boundary error dropped the pass-1 partial result")
	}
	checkPartialInvariants(t, res, len(ckt.Nets))
	if res.Passes != 1 {
		t.Fatalf("partial snapshot from pass %d, want the completed pass 1", res.Passes)
	}
}

// TestChaosScanWorkerPanicFunneled: a panic on a candidate-scan worker
// goroutine must re-raise on the goroutine that owns the net — wrapped as
// GoroutinePanic with the worker's stack — rather than killing the process,
// and must not leak (or poison) any pooled scratch.
func TestChaosScanWorkerPanicFunneled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	opts := Options{MaxPasses: 8, CandidateWorkers: 4}
	want, err := Route(ckt, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := graph.LiveScratches()
	faultpoint.Arm(faultpoint.ScanWorker, faultpoint.Plan{Action: faultpoint.Panic, Nth: 3})
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("armed scan-worker panic did not propagate to the caller")
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
		}()
		Route(ckt, 8, opts)
	}()
	if live := graph.LiveScratches(); live != baseline {
		t.Fatalf("scratch leak across panic: %d live, baseline %d", live, baseline)
	}
	faultpoint.Reset()
	after, err := Route(ckt, 8, opts)
	if err != nil {
		t.Fatalf("routing after recovered panic: %v", err)
	}
	resultsEqual(t, "post-panic-parity", want, after)
}

// TestChaosWarmupPanicFunneled: the same funnel for the terminal-tree
// warm-up, which runs a net's first shortest-path searches on the scan
// forks before any candidate is evaluated. Nets route highest fan-out
// first, so the second search of the run is the first net's warm-up.
func TestChaosWarmupPanicFunneled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	opts := Options{MaxPasses: 8, CandidateWorkers: 4}
	want, err := Route(ckt, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := graph.LiveScratches()
	faultpoint.Arm(faultpoint.SSSPExpand, faultpoint.Plan{Action: faultpoint.Panic, Nth: 2})
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
		Route(ckt, 8, opts)
	}()
	if live := graph.LiveScratches(); live != baseline {
		t.Fatalf("scratch leak across warm-up panic: %d live, baseline %d", live, baseline)
	}
	faultpoint.Reset()
	after, err := Route(ckt, 8, opts)
	if err != nil {
		t.Fatalf("routing after recovered panic: %v", err)
	}
	resultsEqual(t, "post-warm-up-panic-parity", want, after)
}

// TestChaosWidthProbePanicFunneled: the same funnel for width-probe
// goroutines — an SSSP panic inside a parallel MinWidth probe re-raises on
// the search goroutine and the probe's child context is discarded, not
// pooled.
func TestChaosWidthProbePanicFunneled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	baseline := graph.LiveScratches()
	// CandidateWorkers 1 keeps all SSSP runs on the probe goroutines
	// themselves, so the panic exercises exactly the probe funnel.
	opts := Options{MaxPasses: 8, WidthProbes: 2, CandidateWorkers: 1}
	faultpoint.Arm(faultpoint.SSSPExpand, faultpoint.Plan{Action: faultpoint.Panic, Nth: 50})
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("armed SSSP panic did not propagate from the probe batch")
			}
			gp, ok := p.(*faultpoint.GoroutinePanic)
			if !ok {
				t.Fatalf("panic value %T, want *faultpoint.GoroutinePanic", p)
			}
			if _, ok := gp.Value.(*faultpoint.Injected); !ok {
				t.Fatalf("funneled value %T, want *faultpoint.Injected", gp.Value)
			}
		}()
		MinWidth(ckt, 8, opts)
	}()
	if live := graph.LiveScratches(); live != baseline {
		t.Fatalf("scratch leak across probe panic: %d live, baseline %d", live, baseline)
	}
}

// TestFaultCancelMidPassContextReuse is the satellite regression test:
// cancellation mid-pass must leave the routing context's pooled scratch
// reusable — routing again on the same context is bit-identical to a fresh
// context.
func TestFaultCancelMidPassContextReuse(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	opts := Options{MaxPasses: 8}

	fresh := NewContext(nil)
	ref, err := RouteCtx(fresh, ckt, spec.PaperIKMB, opts)
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewContext(nil)
	defer ctx.Close()
	// A width-1 grind is canceled mid-pass by the deadline long before its
	// 20-pass budget could conclude.
	cc, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := RouteContext(cc, ctx, ckt, 1, Options{MaxPasses: 20}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("grind was not canceled: %v", err)
	}

	got, err := RouteCtx(ctx, ckt, spec.PaperIKMB, opts)
	if err != nil {
		t.Fatalf("context not reusable after mid-pass cancellation: %v", err)
	}
	resultsEqual(t, "reuse-after-cancel", ref, got)
}

// TestChaosRouteContextDeadlinePartial: a deadline mid-run returns the best
// partial result alongside the canceled error, and the partial is
// well-formed.
func TestChaosRouteContextDeadlinePartial(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	// Time one pass-limited run to calibrate a deadline that lands mid-run:
	// long enough to route some nets, far too short for 20 passes at an
	// infeasible width.
	start := time.Now()
	if _, err := Route(ckt, spec.PaperIKMB, Options{MaxPasses: 4}); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	cc, cancel := context.WithTimeout(context.Background(), d/2+5*time.Millisecond)
	defer cancel()
	res, err := RouteContext(cc, nil, ckt, 2, Options{MaxPasses: 20})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled+DeadlineExceeded, got %v", err)
	}
	if res != nil {
		checkPartialInvariants(t, res, len(ckt.Nets))
	}
	// res may legitimately be nil if the deadline fired before any net
	// routed; the well-formedness claim is conditional, the error class is
	// not.
}

// TestChaosMinWidthDeadlineBestSoFar: a deadline during the shrink phase
// surrenders the best feasible width found so far with complete=false,
// and the Result at that width is a full (non-partial) routing.
func TestChaosMinWidthDeadlineBestSoFar(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	start := time.Now()
	if _, err := Route(ckt, spec.PaperIKMB+1, Options{MaxPasses: 4}); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	// Enough for the grow probe plus a shrink step or two; the search's
	// final unroutable grind (20 passes) takes an order of magnitude longer.
	cc, cancel := context.WithTimeout(context.Background(), 3*d+100*time.Millisecond)
	defer cancel()
	w, res, complete, err := MinWidthContext(cc, nil, ckt, spec.PaperIKMB+1, Options{MaxPasses: 20, WidthProbes: 1})
	if err == nil {
		t.Fatalf("search completed within %v; deadline calibration is off", 3*d+100*time.Millisecond)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if complete {
		t.Fatal("interrupted search reported complete=true")
	}
	if res == nil || w < 1 {
		t.Fatalf("no best-so-far width surrendered (w=%d res=%v err=%v)", w, res, err)
	}
	if !res.Routed || res.Partial {
		t.Fatalf("best-so-far result should be a full routing at width %d: %+v", w, res)
	}
	if w > spec.PaperIKMB+1 {
		t.Fatalf("best-so-far width %d above the feasible start %d", w, spec.PaperIKMB+1)
	}
}
