package router

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// bound returns a routing context with cc bound to it, closed when the
// test ends.
func bound(t *testing.T, cc context.Context) *Context {
	ctx := NewContext(nil)
	t.Cleanup(ctx.Close)
	ctx.Bind(cc, nil)
	return ctx
}

// TestRouteContextPreCanceled: an already-canceled context aborts before
// any pass runs, with an error matching both ErrCanceled and the cause.
func TestRouteContextPreCanceled(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RouteCtx(bound(t, cc), ckt, 8, Options{MaxPasses: 8})
	if res != nil {
		t.Fatalf("canceled route returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestRouteContextBackgroundMatchesRoute: a never-canceled context must not
// perturb routing — the result is bit-identical to the plain entry point.
func TestRouteContextBackgroundMatchesRoute(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	opts := Options{MaxPasses: 8}
	plain, err := Route(ckt, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	withCC, err := RouteCtx(bound(t, context.Background()), ckt, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "background-context", plain, withCC)
}

// TestMinWidthContextDeadline is the cancellation-semantics regression
// test: a short deadline bound to the routing context must abort
// MinWidthCtx mid-search promptly (bounded wall-clock), classify as
// ErrCanceled plus context.DeadlineExceeded, and leave the stats
// collector and the routing context's pooled scratch reusable once Bind's
// restore has unbound the deadline.
func TestMinWidthContextDeadline(t *testing.T) {
	// busc at MaxPasses 20 takes far longer than the deadline: the search
	// has to grind through rip-up passes at several unroutable widths.
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	col := stats.New()
	ctx := NewContext(col)
	defer ctx.Close()

	cc, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	begin := time.Now()
	restore := ctx.Bind(cc, nil)
	_, _, err := MinWidthCtx(ctx, ckt, 1, Options{MaxPasses: 20})
	restore()
	elapsed := time.Since(begin)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled+DeadlineExceeded, got %v", err)
	}
	// Cancellation is cooperative at pass/net boundaries, so allow the
	// in-flight nets to finish — but a full busc minwidth search takes far
	// longer than this bound.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}

	// The same routing context (same pooled scratch) and collector must
	// still complete a fresh run: the restore unbound the expired deadline.
	probesBefore := col.Snapshot().WidthProbes
	w, res, err := MinWidthCtx(ctx, ckt, spec.PaperIKMB, Options{MaxPasses: 8})
	if err != nil {
		t.Fatalf("context not reusable after cancellation: %v", err)
	}
	if res == nil || !res.Routed || w < 1 {
		t.Fatalf("bad post-cancel result: w=%d res=%+v", w, res)
	}
	if after := col.Snapshot().WidthProbes; after <= probesBefore {
		t.Fatalf("collector stopped recording after cancellation (%d -> %d)", probesBefore, after)
	}
}

// TestMinWidthContextCancelMidBatch cancels (rather than times out) while a
// width probe is in flight and checks the canceled error wins over
// unroutable.
func TestMinWidthContextCancelMidBatch(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	cc, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, _, err := MinWidthCtx(bound(t, cc), ckt, 1, Options{MaxPasses: 20})
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-batch cancellation produced a non-canceled error: %v", err)
	}
	// err == nil is possible if the search won the race; nothing to assert.
}

// TestResultJSONRoundTrip is the wire-format golden test for
// router.Result: encode → decode must be bit-identical (tree edge lists,
// float metrics and all), so service clients can rely on parity with an
// in-process Route call.
func TestResultJSONRoundTrip(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	res, err := Route(ckt, 8, Options{MaxPasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "json-round-trip", res, &back)
	if res.MaxPathSum != back.MaxPathSum || res.MaxUtil != back.MaxUtil {
		t.Fatalf("metrics drifted: %v/%d vs %v/%d", res.MaxPathSum, res.MaxUtil, back.MaxPathSum, back.MaxUtil)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-encoded JSON differs:\n%s\nvs\n%s", again, data)
	}
}
