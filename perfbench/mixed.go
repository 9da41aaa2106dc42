package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/journal"
	"fpgarouter/internal/router"
	"fpgarouter/internal/service"
)

// checkpointEvery makes every parallel route job checkpoint every few
// pathfinder iterations, so checkpoint encoding and its store writes are
// on service-mixed's fresh-job path.
const checkpointEvery = 4

// Options of service-mixed's fresh jobs. The service runs one job per CPU,
// so each job routes on one goroutine: no candidate-scan, net or width-probe
// fan-out (results are identical at every fan-out setting). minwidth jobs
// stay short with two rip-up passes per probed width.
var (
	seqJobOptions   = router.Options{CandidateWorkers: 1}
	parJobOptions   = router.Options{Parallel: true, IncrementalReroute: true, NetWorkers: 1, CandidateWorkers: 1}
	minwidthOptions = router.Options{MaxPasses: 2, WidthProbes: 1, CandidateWorkers: 1}
)

// hitsPerFresh is how many cache-hit resubmissions a round holds per fresh
// job. Like the equal split of fresh jobs between seq, par and minwidth, it
// is an assumption, not a measurement: routed records no traffic to derive
// a mix from. Three hits per fresh job make hits three quarters of the
// requests, so they carry most of request_ms_gmean on this workload.
const hitsPerFresh = 3

// concurrency is the client count and the service's worker count: at most
// the CPUs the process may use, and at most two.
func concurrency() int { return max(1, min(2, runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// svcEnv is an in-process routed: service.New over a journal with the
// default fsync and a result store, both in a fresh temporary directory,
// served over HTTP by httptest on Handler().
type svcEnv struct {
	dir   string
	jr    *journal.Journal
	store *journal.Store
	svc   *service.Service
	srv   *httptest.Server
}

func openService() (*svcEnv, error) {
	dir, err := os.MkdirTemp("", "perfbench-routed-")
	if err != nil {
		return nil, err
	}
	jr, _, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	store, err := journal.NewStore(filepath.Join(dir, "results"))
	if err != nil {
		jr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	svc := service.New(service.Config{Workers: concurrency(), Journal: jr, Results: store, CheckpointEvery: checkpointEvery})
	return &svcEnv{dir: dir, jr: jr, store: store, svc: svc, srv: httptest.NewServer(svc.Handler())}, nil
}

// close stops the server and the service, waiting for both, and removes
// the temporary directory.
func (e *svcEnv) close() error {
	e.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.svc.Shutdown(ctx)
	if cerr := e.jr.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// mixJob is one request of the service mix. Fresh jobs carry their own
// request; a hit resubmits the request of a job that already finished.
type mixJob struct {
	kind    string // "seq", "par", "minwidth" or "hit"
	circuit string
	synth   int64
	ckt     *circuits.Circuit
	width   int // route width, or minwidth start width
	body    []byte
}

func (j *mixJob) label() string {
	return fmt.Sprintf("%s/%s/%d/w%d", j.kind, j.circuit, j.synth, j.width)
}

// finishedReq is a verified fresh request that hits may resubmit.
type finishedReq struct {
	job    *mixJob
	width  int
	wl, mp float64
}

// outcome is what a client saw for one request.
type outcome struct {
	kind       string
	ok         bool
	latMs      float64
	submitMs   float64
	queueMs    float64
	runMs      float64
	overheadMs float64
	checkMs    float64
	polls      int
	width      int
	wl, mp     float64
}

// mixResult is one stretch of the request sequence: the outcomes in
// sequence order, starting with round 0, and the clients' wall time.
type mixResult struct {
	wall      time.Duration
	outcomes  []outcome
	roundLen  int     // requests per round
	peakRSSMB float64 // VmHWM once the first minRounds rounds' worth of requests completed
}

// mixed is the service-mixed workload.
type mixed struct {
	cfg runConfig
	env *svcEnv

	mu     sync.Mutex
	done   []finishedReq
	hitRng *rand.Rand
}

func newMixed(cfg runConfig) *mixed {
	return &mixed{cfg: cfg, hitRng: rngFor(cfg.seed, "hits")}
}

func (m *mixed) circuits() []string {
	if m.cfg.tiny {
		return []string{"apex7"}
	}
	return serviceCircuits
}

// roundJobs returns round r's requests: for each service circuit a
// sequential route, a parallel incremental route and a minwidth job on a
// netlist from the circuit's synthesis-seed pool, plus hitsPerFresh
// cache-hit resubmissions per fresh job, in a seeded order. Fresh requests
// never repeat within a run: once a circuit's pool is used up the width
// moves up by one.
func (m *mixed) roundJobs(r int) ([]*mixJob, error) {
	var jobs []*mixJob
	for _, name := range m.circuits() {
		pool := append([]int64(nil), synthPools[name]...)
		rngFor(m.cfg.seed, "pool-"+name).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		synth := pool[r%len(pool)]
		ckt, w, err := synthesize(name, synth)
		if err != nil {
			return nil, err
		}
		w += r / len(pool)
		reqs := []struct {
			kind string
			req  service.SubmitRequest
		}{
			{"seq", service.SubmitRequest{Mode: service.ModeRoute, Circuit: name, Seed: synth, Width: w,
				Options: seqJobOptions}},
			{"par", service.SubmitRequest{Mode: service.ModeRoute, Circuit: name, Seed: synth, Width: w,
				Options: parJobOptions}},
			{"minwidth", service.SubmitRequest{Mode: service.ModeMinWidth, Circuit: name, Seed: synth, StartWidth: w,
				Options: minwidthOptions}},
		}
		for _, q := range reqs {
			body, err := json.Marshal(q.req)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, &mixJob{kind: q.kind, circuit: name, synth: synth, ckt: ckt, width: w, body: body})
		}
	}
	for range hitsPerFresh * len(jobs) {
		jobs = append(jobs, &mixJob{kind: "hit"})
	}
	rngFor(m.cfg.seed, fmt.Sprintf("round-%d", r)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// open starts a fresh service and runs one warm-up job through it; the
// warm-up's request is the first that hits may resubmit.
func (m *mixed) open(t *tally) error {
	env, err := openService()
	if err != nil {
		return err
	}
	m.env = env
	m.done = nil
	ckt, w, err := synthesize(warmCircuit, warmSynthSeed)
	if err != nil {
		return err
	}
	// Two tracks above the paper width: a request no round ever submits.
	w += 2
	body, err := json.Marshal(service.SubmitRequest{Mode: service.ModeRoute, Circuit: warmCircuit, Seed: warmSynthSeed, Width: w})
	if err != nil {
		return err
	}
	job := &mixJob{kind: "seq", circuit: warmCircuit, synth: warmSynthSeed, ckt: ckt, width: w, body: body}
	if !m.do(job, nil, 0, t).ok {
		return errors.New("service warm-up job failed")
	}
	return nil
}

// qualityRounds is how many rounds every untraced run completes, whatever
// its length; the quality sums come from them and depend only on the seed.
const qualityRounds = 3

// runUntraced measures the end-to-end metrics over requests taken until the
// run's time is up.
func (m *mixed) runUntraced(out io.Writer, t *tally) (*metrics, error) {
	mt := newMetrics(endToEnd)
	setup, err := timeSetup(func() error { return m.open(t) }, func() error {
		env := m.env
		m.env = nil
		return env.close()
	})
	if m.env != nil {
		defer m.env.close()
	}
	if err != nil {
		return nil, err
	}
	mt.set("setup_s", setup)
	rr, err := m.runFor(m.cfg.seconds, qualityRounds, nil, t)
	if err != nil {
		return nil, err
	}
	var jobMs, hitMs, requestMs []float64
	for _, o := range rr.outcomes {
		if !o.ok {
			continue
		}
		requestMs = append(requestMs, o.latMs)
		if o.kind == "hit" {
			hitMs = append(hitMs, o.latMs)
		} else {
			jobMs = append(jobMs, o.latMs)
		}
	}
	var wl, mp, widths float64
	for _, o := range rr.outcomes[:qualityRounds*rr.roundLen] {
		if o.ok && o.kind != "hit" {
			wl, mp = wl+o.wl, mp+o.mp
			if o.kind == "minwidth" {
				widths += float64(o.width)
			}
		}
	}
	rounds := float64(len(rr.outcomes)) / float64(rr.roundLen)
	fmt.Fprintf(out, "requests %d (%.2f rounds) in %.3f s\n", len(rr.outcomes), rounds, rr.wall.Seconds())
	fmt.Fprintf(out, "%s; p50 %.3f ms\n", describeTail("job_ms (fresh jobs, submit to verified result)", jobMs), median(jobMs))
	fmt.Fprintf(out, "%s; p50 %.3f ms\n", describeTail("hit_ms (cache-hit resubmissions)", hitMs), median(hitMs))
	mt.set("suite_s", rr.wall.Seconds()/rounds)
	mt.set("request_ms_gmean", geomean(requestMs))
	mt.set("jobs_per_s", float64(len(jobMs))/rr.wall.Seconds())
	mt.set("wirelength", wl)
	mt.set("max_path_sum", mp)
	mt.set("width_sum", widths)
	mt.set("peak_rss_mb", rr.peakRSSMB)
	return mt, nil
}

// runTraced measures the per-layer metrics: round 0 untraced on one fresh
// service and traced on another (their difference is the tracing
// overhead), then the layer probes on round 0's circuits.
func (m *mixed) runTraced(out io.Writer, mt *metrics, t *tally, tr *tracer) error {
	if err := m.open(t); err != nil {
		return err
	}
	plain, err := m.runFor(0, 1, nil, t)
	if cerr := m.env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	traced, err := m.tracedRound(out, mt, t, tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&gc1)
	mt.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	mt.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	mt.set("trace.overhead_suite_s", traced.wall.Seconds()-plain.wall.Seconds())
	mt.set("trace.overhead_job_ms", median(freshLat(traced))-median(freshLat(plain)))
	var checks []float64
	for _, o := range traced.outcomes {
		if o.ok {
			checks = append(checks, o.checkMs)
		}
	}
	mt.set("verify.check_ms", mean(checks))
	fmt.Fprintf(out, "untraced round %.3f s, traced round %.3f s\n", plain.wall.Seconds(), traced.wall.Seconds())

	jobs, err := m.roundJobs(0)
	if err != nil {
		return err
	}
	var in probeInput
	for _, j := range jobs {
		if j.kind == "seq" {
			in.names, in.seeds = append(in.names, j.circuit), append(in.seeds, j.synth)
			in.ckts, in.widths = append(in.ckts, j.ckt), append(in.widths, j.width)
		}
	}
	// A traced sequential suite on the same circuits, so that the batch
	// spans (request, route, verify) report on this workload too.
	b := &batch{cfg: m.cfg, names: in.names, seeds: in.seeds, ckts: in.ckts, widths: in.widths}
	b.suite(tr, t)
	return probeLayers(out, mt, t, tr, in)
}

// tracedRound runs round 0, traced, on a fresh service and sets the
// service and journal metrics from it.
func (m *mixed) tracedRound(out io.Writer, mt *metrics, t *tally, tr *tracer) (mixResult, error) {
	if err := m.open(t); err != nil {
		return mixResult{}, err
	}
	appended0 := m.env.jr.Appended()
	rr, err := m.runFor(0, 1, tr, t)
	// Closing waits for the workers, whose last journal appends can land
	// after the client saw the job done.
	if cerr := m.env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rr, err
	}
	appended := m.env.jr.Appended() - appended0
	var jobMs, hitMs, queue, run, submit, overhead, polls []float64
	for _, o := range rr.outcomes {
		if !o.ok {
			continue
		}
		submit = append(submit, o.submitMs)
		if o.kind == "hit" {
			hitMs = append(hitMs, o.latMs)
			continue
		}
		jobMs = append(jobMs, o.latMs)
		queue, run = append(queue, o.queueMs), append(run, o.runMs)
		overhead, polls = append(overhead, o.overheadMs), append(polls, float64(o.polls))
	}
	_, jobTail, _ := tail(jobMs)
	_, hitTail, _ := tail(hitMs)
	fmt.Fprintf(out, "service round: %s; %s\n", describeTail("job_ms", jobMs), describeTail("hit_ms", hitMs))
	mt.set("service.job_ms_p50", median(jobMs))
	mt.set("service.job_ms_tail", jobTail)
	mt.set("service.hit_ms_p50", median(hitMs))
	mt.set("service.hit_ms_tail", hitTail)
	mt.set("service.queue_wait_ms", median(queue))
	mt.set("service.run_ms", median(run))
	mt.set("service.submit_ms", median(submit))
	mt.set("service.client_overhead_ms", median(overhead))
	mt.set("service.polls_per_job", mean(polls))
	mt.set("journal.appends_per_job", float64(appended)/float64(len(rr.outcomes)))
	return rr, nil
}

// freshLat returns the latencies of a round's verified fresh jobs.
func freshLat(rr mixResult) []float64 {
	var xs []float64
	for _, o := range rr.outcomes {
		if o.ok && o.kind != "hit" {
			xs = append(xs, o.latMs)
		}
	}
	return xs
}

// do runs one request through the HTTP API: submit, poll to a terminal
// state, fetch and check the result.
func (m *mixed) do(job *mixJob, tr *tracer, parent int, t *tally) outcome {
	out := outcome{kind: job.kind}
	var target finishedReq
	if job.kind == "hit" {
		m.mu.Lock()
		target = m.done[m.hitRng.IntN(len(m.done))]
		m.mu.Unlock()
		job = target.job
	}
	label := job.label()
	t.attempt()
	req := tr.begin(parent, "svc.request", label)
	defer tr.end(req)
	t0 := time.Now()

	sp := tr.begin(req, "svc.submit", label)
	st, err := m.submit(job.body)
	tr.end(sp)
	out.submitMs = ms(time.Since(t0))
	if err != nil {
		t.fail("%s: submit: %v", label, err)
		return out
	}
	if out.kind == "hit" && !st.CacheHit {
		t.fail("%s: resubmission of a finished request was not served from the store", label)
		return out
	}
	delay := time.Millisecond
	for st.State == service.StateQueued || st.State == service.StateRunning {
		time.Sleep(delay)
		delay = min(delay*3/2, 20*time.Millisecond)
		sp := tr.begin(req, "svc.poll", label)
		st, err = m.status(st.ID)
		tr.end(sp)
		out.polls++
		if err != nil {
			t.fail("%s: poll: %v", label, err)
			return out
		}
	}
	if st.State != service.StateDone {
		t.fail("%s: job %s ended %s: %s", label, st.ID, st.State, st.Error)
		return out
	}
	sp = tr.begin(req, "svc.fetch", label)
	rr, err := m.result(st.ID)
	tr.end(sp)
	if err != nil {
		t.fail("%s: fetch: %v", label, err)
		return out
	}
	fetched := time.Now()
	sp = tr.begin(req, "svc.verify", label)
	err = checkJobResult(job, rr, target)
	tr.end(sp)
	end := time.Now()
	if err != nil {
		t.fail("%s: %v", label, err)
		return out
	}
	out.ok = true
	out.latMs = ms(end.Sub(t0))
	out.checkMs = ms(end.Sub(fetched))
	out.width, out.wl, out.mp = rr.Width, rr.Result.Wirelength, rr.Result.MaxPathSum
	if st.StartedAt != nil && st.FinishedAt != nil {
		out.queueMs = ms(st.StartedAt.Sub(st.SubmittedAt))
		out.runMs = ms(st.FinishedAt.Sub(*st.StartedAt))
		out.overheadMs = out.latMs - ms(st.FinishedAt.Sub(st.SubmittedAt))
	}
	if out.kind != "hit" {
		m.mu.Lock()
		m.done = append(m.done, finishedReq{job: job, width: out.width, wl: out.wl, mp: out.mp})
		m.mu.Unlock()
	}
	return out
}

// checkJobResult checks a fetched result with checkResult, plus what the
// request implies: the result is complete, a route comes back at the asked
// width, and a hit returns exactly what the original request returned.
func checkJobResult(job *mixJob, rr service.ResultResponse, target finishedReq) error {
	if !rr.Complete || rr.Result == nil {
		return fmt.Errorf("result incomplete: %s", rr.Error)
	}
	if rr.Width != rr.Result.Width {
		return fmt.Errorf("response width %d, result width %d", rr.Width, rr.Result.Width)
	}
	if job.kind != "minwidth" && rr.Width != job.width {
		return fmt.Errorf("routed at width %d, asked for %d", rr.Width, job.width)
	}
	if target.job != nil && (rr.Width != target.width || rr.Result.Wirelength != target.wl || rr.Result.MaxPathSum != target.mp) {
		return fmt.Errorf("cache hit returned width %d wirelength %.1f, original %d / %.1f",
			rr.Width, rr.Result.Wirelength, target.width, target.wl)
	}
	return checkResult(job.ckt, rr.Result)
}

// runFor runs the request sequence, round after round, with the
// closed-loop clients: each takes the next request, waits for its verified
// result, then takes another. Clients stop taking requests at the first
// round boundary after the given seconds, once at least minRounds rounds
// were taken.
func (m *mixed) runFor(seconds float64, minRounds int, tr *tracer, t *tally) (mixResult, error) {
	var (
		mu        sync.Mutex
		seq       []*mixJob // requests generated so far, in order
		outs      []outcome // one per request taken
		rounds    int
		completed int
		rss       float64
		rssErr    error
		genErr    error
	)
	sp := tr.begin(0, "suite", "")
	start := time.Now()
	take := func() (int, *mixJob) {
		mu.Lock()
		defer mu.Unlock()
		n := len(outs)
		if n == len(seq) {
			// Runs end on a round boundary, so every run measures whole
			// rounds of the same mix of request kinds.
			if genErr != nil || (rounds >= minRounds && time.Since(start).Seconds() >= seconds) {
				return 0, nil
			}
			jobs, err := m.roundJobs(rounds)
			if err != nil {
				genErr = err
				return 0, nil
			}
			seq = append(seq, jobs...)
			rounds++
		}
		outs = append(outs, outcome{})
		return n, seq[n]
	}
	var wg sync.WaitGroup
	for range concurrency() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, job := take()
				if job == nil {
					return
				}
				o := m.do(job, tr, sp, t)
				mu.Lock()
				outs[i] = o
				completed++
				// The service keeps every finished job in memory, so the
				// peak is read once minRounds rounds' worth of requests
				// are done; a run that completes more rounds would
				// otherwise report more memory.
				if completed == minRounds*len(seq)/rounds {
					rss, rssErr = peakRSSMB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(sp)
	if err := errors.Join(genErr, rssErr); err != nil {
		return mixResult{}, err
	}
	return mixResult{wall: wall, outcomes: outs, roundLen: len(seq) / rounds, peakRSSMB: rss}, nil
}

// --- HTTP client ---

func (m *mixed) submit(body []byte) (service.Status, error) {
	var st service.Status
	resp, err := m.env.srv.Client().Post(m.env.srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	return st, decodeResponse(resp, http.StatusAccepted, &st)
}

func (m *mixed) status(id string) (service.Status, error) {
	var st service.Status
	resp, err := m.env.srv.Client().Get(m.env.srv.URL + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	return st, decodeResponse(resp, http.StatusOK, &st)
}

func (m *mixed) result(id string) (service.ResultResponse, error) {
	var rr service.ResultResponse
	resp, err := m.env.srv.Client().Get(m.env.srv.URL + "/jobs/" + id + "/result")
	if err != nil {
		return rr, err
	}
	return rr, decodeResponse(resp, http.StatusOK, &rr)
}

// decodeResponse reads and closes resp, decoding the body into v when the
// status is want.
func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return errors.Join(errors.New("decode response"), err)
	}
	return nil
}
