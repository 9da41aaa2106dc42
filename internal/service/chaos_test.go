// Chaos tests of the service's fault-tolerance layer. Armed fault points
// crash worker goroutines and inject transient errors mid-job; the
// assertions check the daemon's promises — panics are isolated to the job,
// retries with backoff converge, exhausted budgets surface the recovered
// stack, interrupted jobs serve their best partial result with
// complete=false, and the worker pool neither dies nor leaks goroutines.
// Run under -race (see the CI chaos job and `make chaos`).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/router"
)

// settleGoroutines polls until the live goroutine count drops back to at
// most base+slack (HTTP keep-alives and timer goroutines need a moment to
// wind down), failing the test if it never does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosServiceWorkerPanicRetriesConverge is the headline chaos case:
// the worker panics on the first two attempts of a job, the service
// recovers both, rebuilds the poisoned routing context, retries with
// backoff, and the third attempt completes the job — with the daemon
// serving throughout and no goroutine growth afterwards.
func TestChaosServiceWorkerPanicRetriesConverge(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 8})
	baseline := runtime.NumGoroutine()

	faultpoint.Arm(faultpoint.ServiceWorker, faultpoint.Plan{
		Action: faultpoint.Panic, Every: 1, Times: 2,
	})
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", MaxRetries: 3, RetryBackoffMs: -1,
		Options: router.Options{MaxPasses: 8},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done after retries", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts %d, want 3 (two panics + one success)", final.Attempts)
	}
	snap := svc.Stats().Snapshot()
	if snap.JobPanics < 2 || snap.JobRetries < 2 {
		t.Fatalf("counters: panics %d retries %d, want >= 2 each", snap.JobPanics, snap.JobRetries)
	}

	// The daemon must still report live after recovering worker panics.
	var h healthBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz after panics: HTTP %d", code)
	}
	settleGoroutines(t, baseline)
}

// TestChaosServiceWorkerPanicExhaustsRetries: with no retry budget, a
// panicking job fails — carrying the recovered stack over the wire — and
// the worker survives to run the next job.
func TestChaosServiceWorkerPanicExhaustsRetries(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	faultpoint.Arm(faultpoint.ServiceWorker, faultpoint.Plan{
		Action: faultpoint.Panic, Every: 1,
	})
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", MaxRetries: -1, // retries disabled
		Options: router.Options{MaxPasses: 8},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, time.Minute)
	if final.State != StateFailed {
		t.Fatalf("job ended %s (%s), want failed", final.State, final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 with retries disabled", final.Attempts)
	}
	if !strings.Contains(final.Error, "worker panic") {
		t.Fatalf("failed job error %q does not carry the panic", final.Error)
	}
	if final.Stack == "" || !strings.Contains(final.Stack, "goroutine") {
		t.Fatalf("failed job lost the recovered stack: %q", final.Stack)
	}
	// A panicked job produced no result, even a partial one.
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of panicked job: HTTP %d, want 409", code)
	}

	// Disarm; the same worker (with its rebuilt context) serves the next job.
	faultpoint.Reset()
	var next Status
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Options: router.Options{MaxPasses: 8},
	}, &next); code != http.StatusAccepted {
		t.Fatalf("follow-up submit: HTTP %d: %s", code, body)
	}
	if st := pollUntilTerminal(t, ts.URL, next.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("follow-up job ended %s (%s)", st.State, st.Error)
	}
}

// TestChaosScanWorkerPanicIsolatedInService exercises the full funnel: a
// panic on a candidate-scan worker goroutine deep inside the router crosses
// the scan barrier and the job's recover, becomes a transient PanicError,
// and the retry succeeds.
func TestChaosScanWorkerPanicIsolatedInService(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	faultpoint.Arm(faultpoint.ScanWorker, faultpoint.Plan{
		Action: faultpoint.Panic, Nth: 10, // fires once, mid-scan of attempt 1
	})
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", MaxRetries: 2, RetryBackoffMs: -1,
		Options: router.Options{MaxPasses: 8, CandidateWorkers: 4},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done after retry", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (scan panic + clean retry)", final.Attempts)
	}
}

// TestChaosMinWidthPanicIsolatedInService: an SSSP panic inside a minwidth
// job's width search is recovered by the job's isolation, the worker's
// routing context is discarded (no scratch stays checked out once the
// service drains), and the retry returns the width and Result of a direct
// search.
func TestChaosMinWidthPanicIsolatedInService(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := graph.LiveScratches()
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 8})
	spec := circuits.Spec{Name: "mw", Series: circuits.Series4000, Cols: 5, Rows: 5,
		Nets2_3: 12, Nets4_10: 4}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// CandidateWorkers 1 keeps every search on the worker goroutine.
	opts := router.Options{MaxPasses: 4, CandidateWorkers: 1}
	faultpoint.Arm(faultpoint.SSSPExpand, faultpoint.Plan{Action: faultpoint.Panic, Nth: 50})
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Netlist: ckt, StartWidth: 1, MaxRetries: 2, RetryBackoffMs: -1,
		Options: opts,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("job ended %s after %d attempts (%s), want done after 2", final.State, final.Attempts, final.Error)
	}
	if n := svc.Stats().Snapshot().JobPanics; n != 1 {
		t.Fatalf("recovered panics %d, want 1", n)
	}
	var rr ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &rr); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if live := graph.LiveScratches(); live != baseline {
		t.Fatalf("scratch leak across the job's panic: %d live, baseline %d", live, baseline)
	}

	faultpoint.Reset()
	wantW, wantRes, err := router.MinWidthCtx(nil, ckt, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rr.Result)
	want, _ := json.Marshal(wantRes)
	if rr.Width != wantW || !bytes.Equal(got, want) {
		t.Fatalf("retried job returned width %d, direct search %d (results equal: %v)", rr.Width, wantW, bytes.Equal(got, want))
	}
}

// TestFaultTransientErrorRetriesConverge: an injected transient *error*
// (not a panic) at the router's pass boundary is retried like a recovered
// panic — the taxonomy, not the failure mechanism, drives the retry loop.
func TestFaultTransientErrorRetriesConverge(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	faultpoint.Arm(faultpoint.PassBoundary, faultpoint.Plan{
		Action: faultpoint.Error, Err: ErrTransient, Every: 1, Times: 2,
	})
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", MaxRetries: 3, RetryBackoffMs: 1,
		Options: router.Options{MaxPasses: 8},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done after transient retries", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts %d, want 3 (two injected errors + one success)", final.Attempts)
	}
}

// TestChaosMinWidthDeadlinePartialOverHTTP is the acceptance e2e: a
// minwidth job whose deadline lands mid-search ends canceled but serves its
// best feasible width with complete=false over GET /jobs/{id}/result.
func TestChaosMinWidthDeadlinePartialOverHTTP(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	// Calibrate in-process: one pass-limited route at a feasible width.
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := router.Route(ckt, spec.PaperIKMB+1, router.Options{MaxPasses: 4}); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	// Enough for the feasibility probe plus a shrink step; far too short for
	// the search's final 20-pass unroutable grind.
	timeoutMs := int64((3*d + 100*time.Millisecond) / time.Millisecond)

	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", StartWidth: spec.PaperIKMB + 1,
		TimeoutMs: timeoutMs,
		Options:   router.Options{MaxPasses: 20},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, time.Minute)
	if final.State != StateCanceled {
		t.Fatalf("job ended %s (%s), want canceled by its deadline", final.State, final.Error)
	}

	var rr ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &rr); code != http.StatusOK {
		t.Fatalf("partial result: HTTP %d, want 200", code)
	}
	if rr.Complete {
		t.Fatal("interrupted minwidth job served complete=true")
	}
	if rr.Error == "" {
		t.Fatal("partial result response has no error explaining why")
	}
	if rr.Width < 1 || rr.Width > spec.PaperIKMB+1 {
		t.Fatalf("best feasible width %d outside [1, %d]", rr.Width, spec.PaperIKMB+1)
	}
	if rr.Result == nil || !rr.Result.Routed || rr.Result.Partial {
		t.Fatalf("best-so-far result should be a full routing at width %d: %+v", rr.Width, rr.Result)
	}
	if final.Width != rr.Width {
		t.Fatalf("status width %d != result width %d", final.Width, rr.Width)
	}
}

// TestFaultRetryAfterComputed is the satellite unit test of the Retry-After
// estimate: queue drain time from depth × mean ÷ workers, ceiling-rounded,
// clamped to [1, 60].
func TestFaultRetryAfterComputed(t *testing.T) {
	cases := []struct {
		queued  int
		mean    time.Duration
		workers int
		want    int
	}{
		{0, 2 * time.Second, 4, 1},         // empty queue: minimal wait
		{10, 0, 4, 1},                      // no samples yet: minimal wait
		{10, 2 * time.Second, 1, 20},       // 10 jobs × 2s ÷ 1 worker
		{10, 2 * time.Second, 4, 5},        // same load over 4 workers
		{3, 2500 * time.Millisecond, 2, 4}, // 3.75s drains → ceil to 4
		{1000, 30 * time.Second, 1, 60},    // clamped at the cap
		{-5, 2 * time.Second, 0, 1},        // nonsense inputs sanitized
		{1, 100 * time.Millisecond, 4, 1},  // sub-second drain → floor 1
	}
	for _, c := range cases {
		if got := retryAfterFor(c.queued, c.mean, c.workers); got != c.want {
			t.Errorf("retryAfterFor(%d, %v, %d) = %d, want %d",
				c.queued, c.mean, c.workers, got, c.want)
		}
	}

	// The live header must parse as a positive integer.
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 1})
	grind := SubmitRequest{Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1,
		Options: router.Options{MaxPasses: 20}}
	var first, second Status
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &first); code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &second); code != http.StatusAccepted {
		t.Fatal("second submit rejected")
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"mode":"route","circuit":"busc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q not an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	for _, id := range []string{first.ID, second.ID} {
		postJSON(t, ts.URL+"/jobs/"+id+"/cancel", struct{}{}, nil)
	}
}

// TestFaultTimeoutMsEdgeCases is the satellite golden test: out-of-range
// timeout_ms values are rejected deterministically with exact JSON error
// bodies, while the boundary values are accepted.
func TestFaultTimeoutMsEdgeCases(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	golden := []struct {
		timeoutMs int64
		wantBody  string
	}{
		{-1, "{\n  \"error\": \"timeout_ms must be non-negative\"\n}\n"},
		{MaxTimeoutMs + 1, fmt.Sprintf("{\n  \"error\": \"timeout_ms must be at most %d (24h)\"\n}\n", MaxTimeoutMs)},
	}
	for _, g := range golden {
		code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
			Mode: ModeRoute, Circuit: "busc", TimeoutMs: g.timeoutMs,
			Options: router.Options{MaxPasses: 8},
		}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%d: HTTP %d (%s), want 400", g.timeoutMs, code, body)
		}
		if body != g.wantBody {
			t.Fatalf("timeout_ms=%d: body %q, want golden %q", g.timeoutMs, body, g.wantBody)
		}
	}

	// Boundary values are fine: 0 means no deadline, MaxTimeoutMs is the cap.
	for _, ms := range []int64{0, MaxTimeoutMs} {
		var st Status
		code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
			Mode: ModeRoute, Circuit: "busc", TimeoutMs: ms,
			Options: router.Options{MaxPasses: 8},
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("timeout_ms=%d: HTTP %d (%s), want 202", ms, code, body)
		}
		if final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute); final.State != StateDone {
			t.Fatalf("timeout_ms=%d: job ended %s (%s)", ms, final.State, final.Error)
		}
	}
}

// TestFaultReadyzTracksDrainAndSaturation: /readyz flips to 503 when the
// queue saturates or the service drains, while /healthz stays 200 (liveness
// only) so orchestrators don't kill a draining pod.
func TestFaultReadyzTracksDrainAndSaturation(t *testing.T) {
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 1})

	var rb readyBody
	if code := getJSON(t, ts.URL+"/readyz", &rb); code != http.StatusOK || !rb.Ready {
		t.Fatalf("fresh service: readyz HTTP %d %+v, want 200 ready", code, rb)
	}

	// Occupy the worker, then fill the 1-deep queue.
	grind := SubmitRequest{Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1,
		Options: router.Options{MaxPasses: 20}}
	var first, second Status
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &first); code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := svc.Job(first.ID)
		if j.StateNow() == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &second); code != http.StatusAccepted {
		t.Fatal("second submit rejected")
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated readyz without Retry-After")
	}
	for _, id := range []string{first.ID, second.ID} {
		postJSON(t, ts.URL+"/jobs/"+id+"/cancel", struct{}{}, nil)
	}
	pollUntilTerminal(t, ts.URL, first.ID, time.Minute)
	pollUntilTerminal(t, ts.URL, second.ID, time.Minute)

	// Drain: readiness goes 503 "draining", liveness stays 200.
	svc.Shutdown(t.Context())
	var drb readyBody
	if code := getJSON(t, ts.URL+"/readyz", &drb); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: HTTP %d, want 503", code)
	}
	var h healthBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "draining" {
		t.Fatalf("draining healthz: HTTP %d status %q, want 200 draining", code, h.Status)
	}
}
