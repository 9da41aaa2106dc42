package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/journal"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/router"
)

// durableHarness opens a durable service over dir and serves it via
// httptest. Shutdown (but not journal close — restarts reopen it) rides
// the test cleanup.
func durableHarness(t *testing.T, dir string, cfg Config) (*Service, RecoveryReport, *httptest.Server) {
	t.Helper()
	svc, report, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		if !svc.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		}
		svc.cfg.Journal.Close()
	})
	return svc, report, ts
}

// routeTerm1 is the small fast fixture request used across this file.
var routeTerm1 = SubmitRequest{
	Mode: ModeRoute, Circuit: "term1", Seed: 1, Width: 10,
	Options: router.Options{Parallel: true},
}

// TestDurableRestartServesCompletedResults: a job completed before a
// restart is fully servable after it — status, result bytes, and the
// replay counters all reconstructed from the journal and store.
func TestDurableRestartServesCompletedResults(t *testing.T) {
	dir := t.TempDir()

	svc1, report1, ts1 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if report1.ReplayedRecords != 0 {
		t.Fatalf("fresh dir replayed %d records", report1.ReplayedRecords)
	}
	var st Status
	if code, body := postJSON(t, ts1.URL+"/jobs", routeTerm1, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	final := pollUntilTerminal(t, ts1.URL, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	var rr1 ResultResponse
	if code := getJSON(t, ts1.URL+"/jobs/"+st.ID+"/result", &rr1); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc1.Shutdown(ctx)
	ts1.Close()
	svc1.cfg.Journal.Close()

	_, report2, ts2 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if report2.Completed != 1 || report2.Requeued != 0 {
		t.Fatalf("restart replay: %+v, want 1 completed, 0 requeued", report2)
	}
	var st2 Status
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID, &st2); code != http.StatusOK {
		t.Fatalf("recovered status: HTTP %d", code)
	}
	if st2.State != StateDone || !st2.Recovered || st2.Circuit != "term1" || st2.Width != rr1.Width {
		t.Fatalf("recovered status %+v", st2)
	}
	var rr2 ResultResponse
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID+"/result", &rr2); code != http.StatusOK {
		t.Fatalf("recovered result: HTTP %d", code)
	}
	b1, _ := json.Marshal(rr1.Result)
	b2, _ := json.Marshal(rr2.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("recovered result differs from the original:\n%.200s\nvs\n%.200s", b2, b1)
	}
}

// TestIdempotentResubmission: with a result store, resubmitting identical
// (mode, circuit, width, options) is answered from the cache — done on
// arrival, no queue slot — while a different width routes for real.
func TestIdempotentResubmission(t *testing.T) {
	_, _, ts := durableHarness(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})

	var st Status
	if code, body := postJSON(t, ts.URL+"/jobs", routeTerm1, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	if pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute).State != StateDone {
		t.Fatal("first submission did not finish")
	}
	var rr1 ResultResponse
	getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &rr1)

	var dup Status
	if code, body := postJSON(t, ts.URL+"/jobs", routeTerm1, &dup); code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", code, body)
	}
	if dup.State != StateDone || !dup.CacheHit {
		t.Fatalf("duplicate submission = %+v, want done with cache_hit", dup)
	}
	if dup.ID == st.ID {
		t.Fatal("duplicate got the original job ID, want a fresh job served from cache")
	}
	var rr2 ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/"+dup.ID+"/result", &rr2); code != http.StatusOK {
		t.Fatalf("cached result: HTTP %d", code)
	}
	b1, _ := json.Marshal(rr1.Result)
	b2, _ := json.Marshal(rr2.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached result differs from the original")
	}

	// Different width ⇒ different content key ⇒ a real route, not a hit.
	other := routeTerm1
	other.Width = 11
	var st3 Status
	if code, body := postJSON(t, ts.URL+"/jobs", other, &st3); code != http.StatusAccepted {
		t.Fatalf("submit width 11: HTTP %d: %s", code, body)
	}
	if st3.CacheHit {
		t.Fatal("different width reported a cache hit")
	}
	pollUntilTerminal(t, ts.URL, st3.ID, 2*time.Minute)
}

// TestResultStoredBeforeDone: a job reads done only once its result is in
// the store, so a client that polls to done and resubmits always hits the
// cache. Twenty small inline-netlist jobs (distinct widths, so distinct
// content keys) are each polled through Job.StateNow in a tight loop, and
// the store is consulted the first time each reads done.
func TestResultStoredBeforeDone(t *testing.T) {
	svc, _, _ := durableHarness(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})
	spec := circuits.Spec{Name: "inline", Series: circuits.Series4000, Cols: 5, Rows: 5,
		Nets2_3: 12, Nets4_10: 4}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		st, err := svc.Submit(&SubmitRequest{
			Mode: ModeRoute, Netlist: ckt, Width: 8 + i, Options: router.Options{MaxPasses: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatalf("job %d: fresh request answered from the store", i)
		}
		j, _ := svc.Job(st.ID)
		deadline := time.Now().Add(time.Minute)
		state := j.StateNow()
		for !state.terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %s after a minute", i, state)
			}
			state = j.StateNow()
		}
		if state != StateDone {
			t.Fatalf("job %d ended %s: %+v", i, state, j.Status())
		}
		if _, ok := svc.lookupResult(j.key); !ok {
			t.Fatalf("job %d read done before its result was stored", i)
		}
	}
}

// TestRecoveryRequeuesInterruptedJob: a journal holding submitted+started
// with no terminal record — a crash mid-route — re-enqueues the job on
// recovery, and the re-run's result is bit-identical to a direct route.
// A persisted checkpoint the engine rejects — one from the retired
// full-rip mode, or one with a tree edge out of range — must not fail the
// job: the worker deletes it and routes from scratch.
func TestRecoveryRequeuesInterruptedJob(t *testing.T) {
	spec, _ := circuits.SpecByName("term1")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := router.Route(ckt, 10, router.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	wantB, _ := json.Marshal(want)
	var cks []*pathfinder.Checkpoint
	rc := router.NewContext(nil)
	restore := rc.BindDurable(&router.DurableConfig{
		CheckpointEvery: 1,
		CheckpointFn:    func(ck *pathfinder.Checkpoint) { cks = append(cks, ck) },
	})
	_, err = router.RouteCtx(rc, ckt, 10, router.Options{Parallel: true})
	restore()
	rc.Close()
	if err != nil || len(cks) == 0 {
		t.Fatalf("checkpoint capture: %d checkpoints, err %v", len(cks), err)
	}

	for _, tc := range []struct {
		name string
		ckpt func(*pathfinder.Checkpoint) // nil: no checkpoint persisted
	}{
		{"no-checkpoint", nil},
		{"full-rip-checkpoint", func(ck *pathfinder.Checkpoint) { ck.Incremental = false }},
		{"edge-range-checkpoint", func(ck *pathfinder.Checkpoint) {
			ck.Trees = slices.Clone(ck.Trees)
			ck.Trees[0].Edges = append(slices.Clone(ck.Trees[0].Edges), 1<<30)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const id = "job-000007"
			// Fabricate the crash: journal a submission that never finished.
			reqRaw, _ := json.Marshal(routeTerm1)
			recs := []journal.Record{
				{Event: journal.EvSubmitted, JobID: id, Time: time.Now().UTC(), Key: "k7", Request: reqRaw},
				{Event: journal.EvStarted, JobID: id, Time: time.Now().UTC()},
			}
			resumed := 0
			if tc.ckpt != nil {
				ck := *cks[len(cks)/2]
				tc.ckpt(&ck)
				store, err := journal.NewStore(dir + "/store")
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Put(checkpointKey(id), &ck); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, journal.Record{Event: journal.EvCheckpointed, JobID: id, Iteration: ck.Iteration})
				resumed = 1
			}
			j, _, err := journal.Open(dir+"/journal.wal", journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			svc, report, ts := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
			if report.Requeued != 1 || report.Completed != 0 || report.Resumed != resumed {
				t.Fatalf("replay report %+v, want 1 requeued, %d resumed", report, resumed)
			}
			final := pollUntilTerminal(t, ts.URL, id, 2*time.Minute)
			if final.State != StateDone || !final.Recovered {
				t.Fatalf("recovered job ended %+v", final)
			}
			var rr ResultResponse
			if code := getJSON(t, ts.URL+"/jobs/"+id+"/result", &rr); code != http.StatusOK {
				t.Fatalf("result: HTTP %d", code)
			}
			got, _ := json.Marshal(rr.Result)
			if !bytes.Equal(got, wantB) {
				t.Fatalf("re-run result differs from direct route:\n%.200s\nvs\n%.200s", got, wantB)
			}
			if svc.cfg.Results.Has(checkpointKey(id)) {
				t.Fatal("checkpoint blob still in the store after the job finished")
			}
			// New submissions must not collide with the recovered ID space.
			var st Status
			if code, body := postJSON(t, ts.URL+"/jobs", routeTerm1, &st); code != http.StatusAccepted {
				t.Fatalf("post-recovery submit: HTTP %d: %s", code, body)
			}
			if st.ID <= id {
				t.Fatalf("post-recovery job ID %s did not advance past the recovered sequence", st.ID)
			}
		})
	}
}

// TestRecoveryUnresolvableRequestFailsVisibly: a journaled request that no
// longer resolves (unknown circuit) becomes a failed job with its history
// visible, never a silent drop.
func TestRecoveryUnresolvableRequestFailsVisibly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir+"/journal.wal", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqRaw, _ := json.Marshal(SubmitRequest{Mode: ModeRoute, Circuit: "no-such-circuit", Width: 9})
	if err := j.Append(journal.Record{Event: journal.EvSubmitted, JobID: "job-000003", Time: time.Now().UTC(), Request: reqRaw}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, report, ts := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if len(report.Unrecoverable) != 1 || report.Requeued != 0 {
		t.Fatalf("replay report %+v, want 1 unrecoverable", report)
	}
	var st Status
	if code := getJSON(t, ts.URL+"/jobs/job-000003", &st); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("unrecoverable job status %+v, want failed with an error", st)
	}
}

// TestFaultJournalDiskFullServiceContinues: an injected journal write
// failure mid-flight degrades durability only — jobs keep completing
// in-memory, and /readyz stays ready while reporting the degradation.
func TestFaultJournalDiskFullServiceContinues(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc, _, ts := durableHarness(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})

	faultpoint.Arm(faultpoint.JournalAppend, faultpoint.Plan{
		Action: faultpoint.Error, Err: errors.New("no space left on device"), Nth: 1,
	})
	var st Status
	if code, body := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Mode: ModeMinWidth, Circuit: "busc", Seed: 1, Options: minwidthOpts,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	if pollUntilTerminal(t, ts.URL, st.ID, 2*time.Minute).State != StateDone {
		t.Fatal("job did not complete after journal degradation")
	}
	if !svc.cfg.Journal.ReadOnly() {
		t.Fatal("journal not read-only after injected write failure")
	}
	var rb readyBody
	if code := getJSON(t, ts.URL+"/readyz", &rb); code != http.StatusOK {
		t.Fatalf("readyz: HTTP %d (degraded durability must not fail readiness)", code)
	}
	if !rb.Ready || rb.Degraded == "" {
		t.Fatalf("readyz body %+v, want ready with a degraded reason", rb)
	}
	if n := svc.Stats().Snapshot().JournalAppendErrors; n == 0 {
		t.Fatal("no journal append errors counted")
	}
}

// TestCanceledWhileQueuedSurvivesRestart: an explicit cancel of a queued
// job is a journaled terminal event — after a restart the job is still
// canceled, not re-run.
func TestCanceledWhileQueuedSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, _, err := OpenDurable(dir, Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the single worker so the next job stays queued.
	blocker := routeTerm1
	blocker.TimeoutMs = 5_000
	if _, err := svc1.Submit(&blocker); err != nil {
		t.Fatal(err)
	}
	st, err := svc1.Submit(&routeTerm1)
	if err != nil {
		t.Fatal(err)
	}
	if cst, ok := svc1.Cancel(st.ID); !ok || cst.State != StateCanceled {
		t.Fatalf("cancel: ok=%v state=%+v", ok, cst)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	svc1.Shutdown(ctx)
	svc1.cfg.Journal.Close()

	svc2, report, err := OpenDurable(dir, Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc2.Shutdown(ctx)
		svc2.cfg.Journal.Close()
	}()
	j, ok := svc2.Job(st.ID)
	if !ok {
		t.Fatalf("canceled job %s lost across restart (report %+v)", st.ID, report)
	}
	if got := j.Status(); got.State != StateCanceled {
		t.Fatalf("canceled job replayed as %s", got.State)
	}
}
