package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/journal"
	"fpgarouter/internal/router"
)

// routeTerm1Seq is a small sequential route: the fresh job the cache tests
// repeat.
var routeTerm1Seq = SubmitRequest{Mode: ModeRoute, Circuit: "term1", Seed: 1, Width: 10}

// getBody fetches url, returning the status, the Content-Type and the body.
func getBody(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// submitDone submits req and polls it to a terminal state.
func submitDone(t *testing.T, base string, req SubmitRequest) Status {
	t.Helper()
	var st Status
	if code, body := postJSON(t, base+"/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	return pollUntilTerminal(t, base, st.ID, 2*time.Minute)
}

// submitHit submits req, which must be answered from the cache on arrival.
func submitHit(t *testing.T, base string, req SubmitRequest) Status {
	t.Helper()
	var st Status
	if code, body := postJSON(t, base+"/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", code, body)
	}
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("resubmission = %+v, want done with cache_hit", st)
	}
	return st
}

// TestCacheHitBodyParity: GET /jobs/{id}/result writes exactly the bytes
// writeJSON(ResultResponse) writes, fetched twice (the second fetch reuses
// the cached encoding), for a complete route, a minwidth result, their
// cache hits, and a partial result whose error needs HTML escaping. For
// stored results the expected body carries the result decoded from the
// store, as a cache hit served it before results were kept in memory.
func TestCacheHitBodyParity(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc, _, ts := durableHarness(t, t.TempDir(), Config{Workers: 1, QueueDepth: 8})
	check := func(name, id string, fromStore bool) {
		t.Helper()
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("%s: no job %s", name, id)
		}
		rr, _, err := j.Result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fromStore {
			var stored storedResult
			if ok, err := svc.cfg.Results.Get(j.key, &stored); !ok || err != nil {
				t.Fatalf("%s: store read: %v, %v", name, ok, err)
			}
			rr.Result = stored.Result
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, rr)
		for fetch := range 2 {
			code, ct, body := getBody(t, ts.URL+"/jobs/"+id+"/result")
			if code != http.StatusOK || ct != want.Header().Get("Content-Type") {
				t.Fatalf("%s fetch %d: HTTP %d, Content-Type %q", name, fetch, code, ct)
			}
			if !bytes.Equal(body, want.Body.Bytes()) {
				t.Fatalf("%s fetch %d: body differs from writeJSON(ResultResponse):\n%.300s\nvs\n%.300s", name, fetch, body, want.Body.Bytes())
			}
		}
	}

	route := submitDone(t, ts.URL, routeTerm1Seq)
	check("route", route.ID, true)
	check("route hit", submitHit(t, ts.URL, routeTerm1Seq).ID, true)

	minwidth := SubmitRequest{Mode: ModeMinWidth, Circuit: "term1", Seed: 1, Options: minwidthOpts}
	check("minwidth", submitDone(t, ts.URL, minwidth).ID, true)
	check("minwidth hit", submitHit(t, ts.URL, minwidth).ID, true)

	// Pass 1 at width 4 leaves nets unrouted; the fault at pass 2 ends the
	// job failed with pass 1's partial result.
	faultpoint.Arm(faultpoint.PassBoundary, faultpoint.Plan{
		Action: faultpoint.Error, Err: errors.New(`<injected & "fault">`), Nth: 2,
	})
	partial := submitDone(t, ts.URL, SubmitRequest{Mode: ModeRoute, Circuit: "term1", Seed: 1, Width: 4,
		Options: router.Options{MaxPasses: 3}})
	faultpoint.Reset()
	if partial.State != StateFailed {
		t.Fatalf("partial job ended %s (%s), want failed", partial.State, partial.Error)
	}
	j, _ := svc.Job(partial.ID)
	if rr, _, err := j.Result(); err != nil || rr.Complete || !rr.Result.Partial || !strings.Contains(rr.Error, "<injected") {
		t.Fatalf("partial job result: %v, %+v", err, rr)
	}
	check("partial", partial.ID, false)
}

// TestCacheHitRepeatedFromMemory: once a result is stored, resubmitting
// its request synthesizes nothing and reads the store zero times. The
// store's blob is deleted, so a read would miss; the hits keep serving the
// route, from the circuit the first job resolved.
func TestCacheHitRepeatedFromMemory(t *testing.T) {
	svc, _, ts := durableHarness(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})
	first := submitDone(t, ts.URL, routeTerm1Seq)
	if first.State != StateDone {
		t.Fatalf("job ended %s (%s)", first.State, first.Error)
	}
	j1, _ := svc.Job(first.ID)
	if err := svc.cfg.Results.Delete(j1.key); err != nil {
		t.Fatal(err)
	}
	const hits = 3
	for range hits {
		st := submitHit(t, ts.URL, routeTerm1Seq)
		if st.Width != first.Width {
			t.Fatalf("hit served width %d, want %d", st.Width, first.Width)
		}
		j, _ := svc.Job(st.ID)
		if j.ckt != j1.ckt || j.result != j1.result {
			t.Fatal("hit resolved a new circuit or result instead of the memoized ones")
		}
	}
	var metrics bytes.Buffer
	svc.WriteMetrics(&metrics)
	if want := "fpgarouter_jobs_cache_hits_total " + strconv.Itoa(hits) + "\n"; !strings.Contains(metrics.String(), want) {
		t.Fatalf("metrics missing %q in:\n%s", want, metrics.String())
	}
}

// TestCacheHitRestartReadsStoreOnce: after a durable restart a content
// key's result is read from the store once and then served from memory.
// Recovery reads it for the journal's done job; a service whose journal
// holds no done job for the key reads it on the first hit. The read shows
// as the marked width of the blob the store held; the blob is then
// deleted, so any later read would miss.
func TestCacheHitRestartReadsStoreOnce(t *testing.T) {
	dir := t.TempDir()
	svc1, _, ts1 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	first := submitDone(t, ts1.URL, routeTerm1Seq)
	if first.State != StateDone {
		t.Fatalf("job ended %s (%s)", first.State, first.Error)
	}
	j1, _ := svc1.Job(first.ID)
	key, res := j1.key, j1.result.res
	ts1.Close()
	shutdown(t, svc1)
	store := svc1.cfg.Results
	mark := func(width int) {
		t.Helper()
		if err := store.Put(key, storedResult{Width: width, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	drop := func() {
		t.Helper()
		if err := store.Delete(key); err != nil {
			t.Fatal(err)
		}
	}

	mark(1001)
	svc2, report, ts2 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if report.Completed != 1 {
		t.Fatalf("restart replay %+v, want 1 completed", report)
	}
	if j, _ := svc2.Job(first.ID); j.Status().Width != 1001 {
		t.Fatalf("recovered job width %d, want 1001 read from the store", j.Status().Width)
	}
	drop()
	for range 2 {
		if st := submitHit(t, ts2.URL, routeTerm1Seq); st.Width != 1001 {
			t.Fatalf("hit after restart served width %d, want 1001 from memory", st.Width)
		}
	}
	ts2.Close()
	shutdown(t, svc2)

	// A service over the same store but a fresh journal: no recovery read.
	jr, _, err := journal.Open(filepath.Join(t.TempDir(), "journal.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })
	svc3, _, err := Recover(Config{Workers: 1, QueueDepth: 4, Journal: jr, Results: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, svc3) })
	mark(1003)
	for range 2 {
		st, err := svc3.Submit(&routeTerm1Seq)
		if err != nil || !st.CacheHit || st.Width != 1003 {
			t.Fatalf("hit = %+v, %v; want a cache hit at width 1003, read by the first hit only", st, err)
		}
		drop()
	}
}

// shutdown drains svc and closes its journal.
func shutdown(t *testing.T, svc *Service) {
	t.Helper()
	if !svc.Draining() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	svc.cfg.Journal.Close()
}

// TestCacheHitKeyParity: a content key computed from the memo equals the
// key of a freshly synthesized and marshaled circuit, for several circuits
// and seeds (seed 0 meaning 1), on a memo miss, on a hit, and after the
// entry was evicted; and three keys equal the ones earlier builds stored
// results under.
func TestCacheHitKeyParity(t *testing.T) {
	var memo circuitMemo
	check := func(name string, seed int64) {
		t.Helper()
		spec, _ := circuits.SpecByName(name)
		req := SubmitRequest{Mode: ModeRoute, Circuit: name, Seed: seed, Width: 9,
			Options: router.Options{CandidateWorkers: 1}}
		ckt, err := circuits.Synthesize(spec, max(seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		cktJSON, _ := json.Marshal(ckt)
		optsJSON, _ := json.Marshal(req.Options)
		want := journal.Key([]byte(req.Mode), cktJSON, []byte("9"), optsJSON)
		for pass := range 2 {
			job, err := resolveJob(&req, &memo)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := contentKey(job); err != nil || got != want {
				t.Fatalf("%s seed %d pass %d: key %s (%v), want %s", name, seed, pass, got, err, want)
			}
		}
	}
	for _, name := range []string{"busc", "term1", "apex7", "9symml"} {
		for _, seed := range []int64{0, 1, 2, 23} {
			check(name, seed)
		}
	}
	for seed := range int64(memoCapacity) {
		check("term1", 100+seed)
	}
	if len(memo.m) != memoCapacity {
		t.Fatalf("memo holds %d circuits, want its capacity %d", len(memo.m), memoCapacity)
	}
	check("busc", 1) // evicted by now
	for _, c := range []struct {
		req  SubmitRequest
		want string
	}{
		{SubmitRequest{Mode: ModeRoute, Circuit: "term1", Seed: 1, Width: 10, Options: router.Options{Parallel: true}},
			"6f193bcfdef5ed38565fe5b3919943fb3cec3b13aa4b6e597c5a930670d38e3a"},
		{SubmitRequest{Mode: ModeMinWidth, Circuit: "apex7", Options: router.Options{MaxPasses: 2, WidthProbes: 1, CandidateWorkers: 1}},
			"019c13eef07e94c7038e26c53c1f1fae1d8fdcb11ca95090d72580ea1061590d"},
		{SubmitRequest{Mode: ModeRoute, Circuit: "9symml", Seed: 23, Width: 9, Options: router.Options{CandidateWorkers: 1}},
			"6a86603357acf6cb9ad92a40c92a30862071a3fe55b111e6d583de4739888ce9"},
	} {
		job, err := resolveJob(&c.req, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := contentKey(job); got != c.want {
			t.Fatalf("%s %s: key %s, want %s", c.req.Mode, c.req.Circuit, got, c.want)
		}
	}
}

// TestCacheHitOneFsync: a cache hit journals its submitted and done
// records in one append: one write, one fsync, both records replayable.
func TestCacheHitOneFsync(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	svc, _, ts := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if st := submitDone(t, ts.URL, routeTerm1Seq); st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	// The worker journals done after the job reads done: wait for it.
	for deadline := time.Now().Add(time.Minute); svc.cfg.Journal.Appended() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fresh job journaled %d records, want 3", svc.cfg.Journal.Appended())
		}
	}
	faultpoint.Arm(faultpoint.JournalAppend, faultpoint.Plan{}) // count hits, never fire
	faultpoint.Arm(faultpoint.JournalFsync, faultpoint.Plan{})
	hit := submitHit(t, ts.URL, routeTerm1Seq)
	if w, s := faultpoint.Hits(faultpoint.JournalAppend), faultpoint.Hits(faultpoint.JournalFsync); w != 1 || s != 1 {
		t.Fatalf("a hit hit the append point %d times and the fsync point %d times, want 1 and 1", w, s)
	}
	if n := svc.cfg.Journal.Appended(); n != 5 {
		t.Fatalf("journal holds %d records after the hit, want 5", n)
	}
	ts.Close()
	shutdown(t, svc)
	_, rep, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Records[len(rep.Records)-2:]
	if last[0].Event != journal.EvSubmitted || last[1].Event != journal.EvDone ||
		last[0].JobID != hit.ID || last[1].JobID != hit.ID || last[1].Key != last[0].Key || last[1].Width != hit.Width {
		t.Fatalf("hit's records replayed as %+v", last)
	}
}

// TestCacheHitTornFrameReplaysInterrupted: a crash that tears a hit's
// done frame, the second of its one append, leaves its submitted record:
// the hit replays as an interrupted job, which re-runs to the same result.
func TestCacheHitTornFrameReplaysInterrupted(t *testing.T) {
	dir := t.TempDir()
	svc1, _, ts1 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	first := submitDone(t, ts1.URL, routeTerm1Seq)
	if first.State != StateDone {
		t.Fatalf("job ended %s (%s)", first.State, first.Error)
	}
	hit := submitHit(t, ts1.URL, routeTerm1Seq)
	j1, _ := svc1.Job(first.ID)
	want, _ := json.Marshal(j1.result.res)
	ts1.Close()
	shutdown(t, svc1)

	path := filepath.Join(dir, "journal.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lastAt int
	for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off:])) {
		lastAt = off
	}
	if err := os.Truncate(path, int64(lastAt+(len(raw)-lastAt)/2)); err != nil {
		t.Fatal(err)
	}

	_, report, ts2 := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if report.Completed != 1 || report.Requeued != 1 || report.SalvagedBytes == 0 {
		t.Fatalf("replay of a torn hit: %+v, want 1 completed, 1 requeued, a salvaged tail", report)
	}
	final := pollUntilTerminal(t, ts2.URL, hit.ID, 2*time.Minute)
	if final.State != StateDone || !final.Recovered || final.CacheHit {
		t.Fatalf("torn hit replayed as %+v, want a recovered, re-run job", final)
	}
	var rr ResultResponse
	if code := getJSON(t, ts2.URL+"/jobs/"+hit.ID+"/result", &rr); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if got, _ := json.Marshal(rr.Result); !bytes.Equal(got, want) {
		t.Fatal("re-run result differs from the original route")
	}
}

// TestCacheHitConcurrent, for the race detector: two workers route two
// jobs on one memoized circuit at once, then clients fetch concurrent hits
// on one key, sharing one result and its encoding.
func TestCacheHitConcurrent(t *testing.T) {
	svc, _, ts := durableHarness(t, t.TempDir(), Config{Workers: 2, QueueDepth: 8})
	reqs := []SubmitRequest{routeTerm1Seq, routeTerm1Seq}
	reqs[1].Width++
	var ids []string
	for _, req := range reqs {
		var st Status
		if code, body := postJSON(t, ts.URL+"/jobs", req, &st); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", code, body)
		}
		ids = append(ids, st.ID)
	}
	ja, _ := svc.Job(ids[0])
	jb, _ := svc.Job(ids[1])
	if ja.ckt != jb.ckt {
		t.Fatal("two jobs naming one circuit resolved two circuits")
	}
	for _, id := range ids {
		if st := pollUntilTerminal(t, ts.URL, id, 2*time.Minute); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	_, _, want := getBody(t, ts.URL+"/jobs/"+ids[0]+"/result")
	want = want[bytes.Index(want, []byte(`"mode"`)):]

	var wg sync.WaitGroup
	for range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				data, _ := json.Marshal(routeTerm1Seq)
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || !st.CacheHit {
					t.Errorf("concurrent resubmission: %+v, %v", st, err)
					return
				}
				resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.HasSuffix(body, want) {
					t.Errorf("concurrent hit body differs from the original's: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
