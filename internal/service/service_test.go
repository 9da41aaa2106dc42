package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// harness spins up a service over httptest and tears it down with the test.
func harness(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		if !svc.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		}
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode < 300 {
			if err := json.Unmarshal(buf.Bytes(), out); err != nil {
				t.Fatalf("decoding %q: %v", buf.String(), err)
			}
		}
	}
	return resp.StatusCode
}

// pollUntilTerminal polls a job's status until it leaves queued/running.
func pollUntilTerminal(t *testing.T, base, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st Status
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", code)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// minwidthOpts keeps service tests fast while staying on a real paper
// circuit: few passes.
var minwidthOpts = router.Options{MaxPasses: 4}

// TestEndToEndMinWidthParity is the acceptance test: submit a minwidth job
// for a paper circuit over HTTP, poll to completion, and require the
// returned width and result to be bit-identical to calling router.MinWidth
// in-process. The job also carries the retired width_probes field, which
// the direct reference leaves unset: it must change nothing.
func TestEndToEndMinWidthParity(t *testing.T) {
	_, ts := harness(t, Config{Workers: 2, QueueDepth: 8})

	jobOpts := minwidthOpts
	jobOpts.WidthProbes = 2
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", Seed: 1, Options: jobOpts,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	if st.State != StateQueued || st.Circuit != "busc" || st.ID == "" {
		t.Fatalf("submit status %+v", st)
	}

	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}

	var rr ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &rr); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}

	// In-process reference with identical inputs: the job synthesized busc
	// with seed 1 and started at the paper's best known width.
	spec, _ := circuits.SpecByName("busc")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantW, wantRes, err := router.MinWidth(ckt, spec.PaperIKMB, minwidthOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Width != wantW || final.Width != wantW {
		t.Fatalf("service width %d/%d, direct %d", rr.Width, final.Width, wantW)
	}
	got, _ := json.Marshal(rr.Result)
	want, _ := json.Marshal(wantRes)
	if !bytes.Equal(got, want) {
		t.Fatalf("service result differs from direct MinWidth:\n%.200s\nvs\n%.200s", got, want)
	}
}

// assertWireParity submits a route of circuit (seed 1) at width 10 with
// the given options body, raw JSON so the test also pins the wire names,
// and requires its result bit-identical to the same route run in-process
// with want.
func assertWireParity(t *testing.T, circuit, options string, want router.Options) {
	t.Helper()
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 4})

	req := []byte(`{"mode":"route","circuit":"` + circuit + `","seed":1,"width":10,"options":` + options + `}`)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	var rr ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &rr); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}

	spec, _ := circuits.SpecByName(circuit)
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := router.Route(ckt, 10, want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(rr.Result)
	wantJSON, _ := json.Marshal(wantRes)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s %s: wire result differs from direct route with %+v:\n%.200s\nvs\n%.200s", circuit, options, want, gotJSON, wantJSON)
	}
}

// TestParallelWireParity pins the parallel / net_workers wire names and
// their plumbing: a route submitted with parallel:true must be
// bit-identical to the same net-parallel route run in-process (the
// pathfinder is deterministic and worker-count invariant, so the wire's
// net_workers:2 against the direct route's default is part of the
// contract, not a fixture detail).
func TestParallelWireParity(t *testing.T) {
	assertWireParity(t, "term1", `{"parallel":true,"net_workers":2}`, router.Options{Parallel: true})
}

// TestIncrementalWireParity pins the incremental_reroute wire name:
// requests that still carry it — journaled ones, older clients — must be
// accepted and route exactly like parallel:true alone, since partial
// rip-up is the only mode.
func TestIncrementalWireParity(t *testing.T) {
	assertWireParity(t, "term1", `{"parallel":true,"incremental_reroute":true}`, router.Options{Parallel: true})
}

// TestLazyScanWireParity: requests that still carry the retired lazy_scan
// field must be accepted and route exactly like the same request without
// it. busc single-step at width 10 is a route the lazy scan used to change.
func TestLazyScanWireParity(t *testing.T) {
	assertWireParity(t, "busc", `{"lazy_scan":true,"single_step":true}`, router.Options{SingleStep: true})
}

// TestGoalDirectedWireParity: requests that still carry the retired
// goal_directed field must be accepted and route exactly like the default
// route, which goal-directed search used to change on busc at width 10.
func TestGoalDirectedWireParity(t *testing.T) {
	assertWireParity(t, "busc", `{"goal_directed":true}`, router.Options{})
}

// TestDeadlineJobCancels: a short-deadline job transitions to canceled
// without blocking the worker pool — a job submitted afterwards completes
// on the same single worker.
func TestDeadlineJobCancels(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	// An effectively-unroutable grind: busc minwidth from width 1 with the
	// full pass budget takes far longer than the 25ms deadline.
	var doomed Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1, TimeoutMs: 25,
		Options: router.Options{MaxPasses: 20},
	}, &doomed)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, doomed.ID, time.Minute)
	if final.State != StateCanceled {
		t.Fatalf("deadline job ended %s (%s), want canceled", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("canceled error %q does not mention the deadline", final.Error)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+doomed.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of canceled job: HTTP %d, want 409", code)
	}

	// The pool must still serve: a small route job on the same worker.
	var next Status
	code, body = postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Options: router.Options{MaxPasses: 8},
	}, &next)
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: HTTP %d: %s", code, body)
	}
	if st := pollUntilTerminal(t, ts.URL, next.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("follow-up job ended %s (%s)", st.State, st.Error)
	}
}

// TestCancelQueuedJob: with one busy worker, a queued job canceled over
// HTTP flips to canceled without ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	var blocker, queued Status
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1,
		Options: router.Options{MaxPasses: 20},
	}, &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker submit: HTTP %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Options: router.Options{MaxPasses: 8},
	}, &queued); code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d: %s", code, body)
	}

	var canceled Status
	if code, body := postJSON(t, ts.URL+"/jobs/"+queued.ID+"/cancel", struct{}{}, &canceled); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, body)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("after cancel: state %s", canceled.State)
	}
	if canceled.StartedAt != nil {
		t.Fatalf("queued job ran before cancellation: %+v", canceled)
	}
	// Unblock the worker promptly for teardown.
	postJSON(t, ts.URL+"/jobs/"+blocker.ID+"/cancel", struct{}{}, nil)
	pollUntilTerminal(t, ts.URL, blocker.ID, time.Minute)
}

// TestGracefulShutdownDrains: Shutdown with a generous grace must let an
// in-flight job finish and report done, not canceled.
func TestGracefulShutdownDrains(t *testing.T) {
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 4})

	var st Status
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Options: router.Options{MaxPasses: 8},
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	// Wait until the worker picks it up so shutdown really drains an
	// in-flight job rather than a queued one.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := svc.Job(st.ID)
		if s := j.StateNow(); s != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	j, _ := svc.Job(st.ID)
	if s := j.StateNow(); s != StateDone {
		t.Fatalf("drained job ended %s, want done", s)
	}
	// Post-shutdown submissions are refused.
	if _, err := svc.Submit(&SubmitRequest{Mode: ModeRoute, Circuit: "busc"}); err != ErrDraining {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
}

// TestShutdownGraceExpiryCancels: a tiny grace period cancels the
// in-flight grind instead of hanging Shutdown forever.
func TestShutdownGraceExpiryCancels(t *testing.T) {
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 4})
	var st Status
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1,
		Options: router.Options{MaxPasses: 20},
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err := svc.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("shutdown error %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(begin); elapsed > 30*time.Second {
		t.Fatalf("shutdown took %v after grace expiry", elapsed)
	}
	j, _ := svc.Job(st.ID)
	if s := j.StateNow(); s != StateCanceled {
		t.Fatalf("grind ended %s, want canceled", s)
	}
}

// TestInlineNetlistRoute: an inline wire-format netlist routes end to end.
func TestInlineNetlistRoute(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 4})
	spec := circuits.Spec{Name: "inline", Series: circuits.Series4000, Cols: 5, Rows: 5,
		Nets2_3: 12, Nets4_10: 4}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Netlist: ckt, Width: 8, Options: router.Options{MaxPasses: 8},
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts.URL, st.ID, time.Minute)
	if final.State != StateDone || final.Width != 8 {
		t.Fatalf("inline job %+v", final)
	}
}

// TestSubmitValidation maps bad requests to 400 with a reason.
func TestSubmitValidation(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 4})
	bad := []SubmitRequest{
		{Mode: "unknown", Circuit: "busc"},
		{Mode: ModeRoute},                                                   // neither circuit nor netlist
		{Mode: ModeRoute, Circuit: "nope"},                                  // unknown circuit
		{Mode: ModeRoute, Circuit: "busc", TimeoutMs: -1},                   // negative deadline
		{Mode: ModeMinWidth, Circuit: "busc", Netlist: &circuits.Circuit{}}, // both sources
	}
	for i, req := range bad {
		if code, body := postJSON(t, ts.URL+"/jobs", req, nil); code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d (%s), want 400", i, code, body)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
}

// TestQueueFullRejects: a saturated queue returns 503 with Retry-After.
func TestQueueFullRejects(t *testing.T) {
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the worker, then fill the 1-deep queue.
	grind := SubmitRequest{Mode: ModeMinWidth, Circuit: "busc", StartWidth: 1,
		Options: router.Options{MaxPasses: 20}}
	var first Status
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &first); code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	// Wait for the worker to take the first job so queue occupancy is
	// deterministic, then saturate.
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
	var second Status
	if code, _ := postJSON(t, ts.URL+"/jobs", grind, &second); code != http.StatusAccepted {
		t.Fatal("second submit rejected")
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"mode":"route","circuit":"busc"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Unblock for teardown.
	for _, id := range []string{first.ID, second.ID} {
		postJSON(t, ts.URL+"/jobs/"+id+"/cancel", struct{}{}, nil)
	}
}

// TestHealthzAndMetrics checks the production furniture endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := harness(t, Config{Workers: 2, QueueDepth: 8})

	var h healthBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCapacity != 8 {
		t.Fatalf("healthz body %+v", h)
	}

	var st Status
	if code, _ := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Options: router.Options{MaxPasses: 8},
	}, &st); code != http.StatusAccepted {
		t.Fatal("submit rejected")
	}
	pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"fpgarouter_jobs_submitted_total 1",
		"# TYPE fpgarouter_jobs_cache_hits_total counter\nfpgarouter_jobs_cache_hits_total 0\n",
		`fpgarouter_jobs_completed_total{state="done"} 1`,
		"fpgarouter_workers 2",
		"# TYPE fpgarouter_sssp_runs_total counter",
		"fpgarouter_passes_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	var list []Status
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("job list: code %d, %d entries", code, len(list))
	}
}

// TestWorkersReuseRoutingContext exercises many small jobs through a small
// pool, which under -race also proves the long-lived per-worker contexts
// and the shared collector are data-race free across jobs.
func TestWorkersReuseRoutingContext(t *testing.T) {
	_, ts := harness(t, Config{Workers: 2, QueueDepth: 16})
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var st Status
		code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
			Mode: ModeRoute, Circuit: "busc", Seed: int64(1 + i%2),
			Options: router.Options{MaxPasses: 8},
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, code, body)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := pollUntilTerminal(t, ts.URL, id, 2*time.Minute); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
}
