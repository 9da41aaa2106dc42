// Package service turns the router library into a servable system: an HTTP
// JSON API over a bounded job queue and a worker pool. Each worker owns one
// long-lived router.Context, so the pooled SSSP scratch of PR 1 is reused
// across jobs instead of per call; each job carries its own
// context.Context, so cancellation (explicit, deadline, or shutdown) aborts
// a run cooperatively at the router's pass/net boundaries.
//
// Lifecycle: Submit admits a job (rejecting when the queue is full or the
// service is draining), workers pull jobs in FIFO order, and Shutdown stops
// admissions, drains queued and running jobs, and — once the caller's grace
// context expires — cancels whatever is still in flight.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/journal"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

// Config sizes the service. The zero value is completed with defaults.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS, capped at 4 —
	// each worker's routes fan their candidate scans out too).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; beyond it
	// submissions are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// Stats receives router work counters from every worker (default: a
	// fresh collector, exposed at /metrics).
	Stats *stats.Collector
	// Journal, when non-nil, receives every job lifecycle event as a
	// write-ahead record; Results, when non-nil, is the content-addressed
	// store holding completed results (the cache behind idempotent
	// resubmission) and pathfinder checkpoints. Leave both nil for a purely
	// in-memory service — every durability site is nil-guarded. Recover
	// (and the OpenDurable convenience) wires both from a directory.
	Journal *journal.Journal
	Results *journal.Store
	// CheckpointEvery / CheckpointPeriod set the pathfinder checkpoint
	// cadence for durable parallel-mode routes (both 0 = no checkpoints;
	// see pathfinder.Config).
	CheckpointEvery  int
	CheckpointPeriod time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Stats == nil {
		c.Stats = stats.New()
	}
	return c
}

// Submission failure modes, tagged transient in the error taxonomy (see
// errors.go) so the HTTP layer maps them to 503 with a Retry-After.
var (
	ErrQueueFull = Classify(ErrTransient, errors.New("service: job queue full"))
	ErrDraining  = Classify(ErrTransient, errors.New("service: shutting down, not accepting jobs"))
)

// Service is a running routing service: worker pool, bounded queue, and
// job registry. Create with New, serve via Handler, stop with Shutdown.
type Service struct {
	cfg   Config
	stats *stats.Collector

	base       context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	seq      int64
	draining bool
	queue    chan *Job

	wg      sync.WaitGroup
	running atomic.Int64

	// circuits memoizes named circuits; index maps content keys to the
	// *resultEntry answering them, for as long as the process lives, like
	// the job registry (see cache.go).
	circuits circuitMemo
	index    sync.Map

	submitted atomic.Int64
	rejected  atomic.Int64
	cacheHits atomic.Int64
	completed [3]atomic.Int64 // done, failed, canceled

	// durMu guards the ring of recent job wall times feeding the computed
	// Retry-After of saturation 503s.
	durMu    sync.Mutex
	durRing  [jobDurationWindow]time.Duration
	durCount int
}

// jobDurationWindow sizes the recent-job-duration ring: enough samples to
// smooth one noisy job, few enough to track load shifts quickly.
const jobDurationWindow = 16

// indices into Service.completed.
const (
	cDone = iota
	cFailed
	cCanceled
)

// New starts a service: the queue is allocated and the workers spawn
// immediately, each owning a long-lived router.Context bound to the shared
// stats collector. For a durable service that first replays its journal,
// use Recover (or OpenDurable) instead.
func New(cfg Config) *Service {
	s := newService(cfg, 0)
	s.startWorkers()
	return s
}

// newService builds the service without spawning workers, so Recover can
// enqueue replayed jobs first. extraQueue widens the channel beyond
// QueueDepth to hold recovered jobs without eating admission capacity.
func newService(cfg Config, extraQueue int) *Service {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:        cfg,
		stats:      cfg.Stats,
		base:       base,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth+extraQueue),
	}
}

func (s *Service) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// journalAppend writes lifecycle records to the journal, if any, in one
// append. Append failures degrade durability, never availability: each
// dropped record is counted and the service keeps running in-memory
// (/readyz reports the degradation).
func (s *Service) journalAppend(recs ...journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	now := time.Now().UTC()
	for i := range recs {
		recs[i].Time = now
	}
	if err := s.cfg.Journal.Append(recs...); err != nil {
		s.stats.Record(func(st *stats.Snapshot) { st.JournalAppendErrors += int64(len(recs)) })
	}
}

// JournalDegraded returns the sticky append failure that flipped the
// journal read-only (nil while healthy or with no journal).
func (s *Service) JournalDegraded() error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal.DegradedCause()
}

// contentKey computes the job's result-store address: the hash of
// everything that determines the answer — mode, the resolved circuit
// (synthesis seed folded in), the width, and the routing options. Timeout
// and retry policy are deliberately excluded. A named circuit's JSON comes
// from the memo; an inline netlist is marshaled here.
func contentKey(job *Job) (string, error) {
	cktJSON := job.cktJSON
	if cktJSON == nil {
		var err error
		if cktJSON, err = json.Marshal(job.ckt); err != nil {
			return "", err
		}
	}
	optsJSON, err := json.Marshal(job.opts)
	if err != nil {
		return "", err
	}
	return journal.Key([]byte(job.mode), cktJSON, []byte(strconv.Itoa(job.width)), optsJSON), nil
}

// storedResult is the result-store blob of a completed job.
type storedResult struct {
	Width  int            `json:"width"`
	Result *router.Result `json:"result"`
}

// Stats returns the collector shared by all workers.
func (s *Service) Stats() *stats.Collector { return s.stats }

// Submit validates and admits a routing job, returning its queued status.
// It fails with ErrDraining after Shutdown began, ErrQueueFull when the
// bounded queue has no room, and an ErrBadRequest-classified validation
// error for malformed requests.
//
// With a result store configured, submission is idempotent on content: a
// request whose (mode, circuit, width, options) was already completed is
// answered from the in-memory index or else the store — the returned
// status is already done, with CacheHit set — without consuming a queue
// slot, and its two journal records share one append.
func (s *Service) Submit(req *SubmitRequest) (Status, error) {
	job, err := resolveJob(req, &s.circuits)
	if err != nil {
		return Status{}, Classify(ErrBadRequest, err)
	}
	job.ctx, job.cancel = context.WithCancel(s.base)
	job.submitted = time.Now()
	var reqRaw json.RawMessage
	if s.cfg.Journal != nil || s.cfg.Results != nil {
		if job.key, err = contentKey(job); err != nil {
			return Status{}, Classify(ErrBadRequest, err)
		}
		// Re-marshal the decoded request (not the caller's raw bytes) so the
		// journaled form round-trips through the same struct on replay.
		if reqRaw, err = json.Marshal(req); err != nil {
			return Status{}, Classify(ErrBadRequest, err)
		}
	}
	cached, haveCached := s.lookupResult(job.key)

	// The job is registered, journaled and its status taken before a worker
	// can see it: every send happens under mu, so the room checked here is
	// still there at the send, and a worker never starts (or journals) a
	// job ahead of its submitted record.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Add(1)
		return Status{}, ErrDraining
	}
	if !haveCached && len(s.queue) == cap(s.queue) {
		s.rejected.Add(1)
		return Status{}, ErrQueueFull
	}
	s.seq++
	job.id = fmt.Sprintf("job-%06d", s.seq)
	if haveCached {
		job.state = StateDone
		job.cacheHit = true
		job.complete = true
		job.outWidth = cached.width
		job.result = cached
		job.started = job.submitted
		job.finished = time.Now()
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.submitted.Add(1)
	recs := []journal.Record{{Event: journal.EvSubmitted, JobID: job.id, Key: job.key, Request: reqRaw}}
	if haveCached {
		s.completed[cDone].Add(1)
		s.cacheHits.Add(1)
		recs = append(recs, journal.Record{Event: journal.EvDone, JobID: job.id, Key: job.key, Width: job.outWidth})
	}
	s.journalAppend(recs...)
	st := job.Status()
	if !haveCached {
		s.queue <- job
	}
	return st, nil
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's status in submission order.
func (s *Service) Jobs() []Status {
	return s.JobsFiltered("", 0)
}

// JobsFiltered returns job statuses in submission order, optionally
// restricted to one lifecycle state, and optionally truncated to the
// newest limit entries (limit 0 = unbounded).
func (s *Service) JobsFiltered(state State, limit int) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		st := s.jobs[id].Status()
		if state != "" && st.State != state {
			continue
		}
		out = append(out, st)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Cancel cancels a job by ID, reporting whether it exists.
func (s *Service) Cancel(id string) (Status, bool) {
	j, ok := s.Job(id)
	if !ok {
		return Status{}, false
	}
	if j.Cancel() {
		// Canceled while still queued: no worker will run finish for it, so
		// the terminal record is journaled here.
		s.journalAppend(journal.Record{Event: journal.EvCanceled, JobID: id, Error: "canceled before execution"})
	}
	return j.Status(), true
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops admissions and waits for queued and running jobs to
// finish. When ctx expires first (the grace period), every outstanding job
// is canceled cooperatively and Shutdown still waits for the workers to
// acknowledge before returning ctx's error. It is safe to call once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: Shutdown called twice")
	}
	s.draining = true
	close(s.queue) // safe: sends happen under mu with draining=false
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel() // grace expired: cancel in-flight and queued jobs
		<-drained
		return ctx.Err()
	}
}

// worker is one pool goroutine: it owns a router.Context across jobs
// (pooled scratch reused job to job) and executes queued jobs until the
// queue closes. run returns a replacement context when a job's panic
// poisoned the old one, so the closure-captured rc is always live.
func (s *Service) worker() {
	defer s.wg.Done()
	rc := router.NewContext(s.stats)
	defer func() { rc.Close() }()
	for job := range s.queue {
		rc = s.run(rc, job)
	}
}

// run executes one job on the worker's routing context, retrying transient
// failures (recovered panics, injected transient faults) with exponential
// backoff + jitter up to the job's retry budget. It returns the routing
// context the worker should keep: the one passed in, or a fresh one if a
// panic forced a discard.
func (s *Service) run(rc *router.Context, job *Job) *router.Context {
	if !job.begin() {
		// Canceled while queued; Service.Cancel journaled the terminal event.
		s.completed[cCanceled].Add(1)
		return rc
	}
	s.journalAppend(journal.Record{Event: journal.EvStarted, JobID: job.id})
	s.running.Add(1)
	defer s.running.Add(-1)
	start := time.Now()
	cc := job.ctx
	if job.timeout > 0 {
		var cancel context.CancelFunc
		cc, cancel = context.WithTimeout(cc, job.timeout)
		defer cancel()
	}
	var (
		res      *router.Result
		width    int
		err      error
		attempts int
	)
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		var panicked bool
		width, res, err, panicked = s.attempt(rc, cc, job)
		if panicked {
			// The panic may have interrupted pooled-scratch bookkeeping
			// mid-flight: discard the context wholesale and rebuild, so the
			// process-wide pool never sees a possibly-inconsistent entry.
			s.stats.Record(func(st *stats.Snapshot) { st.JobPanics++ })
			rc.Discard()
			rc = router.NewContext(s.stats)
		}
		if job.resume != nil && errors.Is(err, pathfinder.ErrBadCheckpoint) {
			// The recovered checkpoint cannot be resumed — a full-rip
			// snapshot from an older build, or corrupt contents. Drop it and
			// route from scratch; a restart is not a retry, so it leaves
			// the retry budget untouched.
			s.cfg.Results.Delete(checkpointKey(job.id))
			job.resume = nil
			attempt--
			continue
		}
		if err == nil || attempt >= job.retries || !errors.Is(err, ErrTransient) {
			break
		}
		s.stats.Record(func(st *stats.Snapshot) { st.JobRetries++ })
		if !sleepBackoff(cc, job.backoff, attempt) {
			// Canceled while backing off: surface the cancellation, keeping
			// the transient error as context.
			err = fmt.Errorf("%w during retry backoff (last error: %w): %w",
				router.ErrCanceled, err, context.Cause(cc))
			break
		}
	}
	if err != nil && res != nil {
		s.stats.Record(func(st *stats.Snapshot) { st.PartialResults++ })
	}
	s.observeJobDuration(time.Since(start))
	var entry *resultEntry
	if res != nil {
		entry = &resultEntry{width: width, res: res}
	}
	// Persist a successful result BEFORE finish publishes done and before
	// the done journal record: a client that polls to done and resubmits
	// must hit the cache, and a crash between Put and the record replays
	// the job as interrupted and re-runs it — never as done with a missing
	// result. Only a stored result is indexed, so a failed Put leaves the
	// next resubmission to recompute. finish maps a nil error to done
	// unconditionally.
	if err == nil && s.cfg.Results != nil && job.key != "" {
		if perr := s.cfg.Results.Put(job.key, storedResult{Width: width, Result: res}); perr != nil {
			s.stats.Record(func(st *stats.Snapshot) { st.JournalAppendErrors++ })
		} else if entry != nil {
			s.index.Store(job.key, entry)
		}
	}
	switch job.finish(width, entry, err, attempts) {
	case StateDone:
		s.completed[cDone].Add(1)
		s.journalAppend(journal.Record{Event: journal.EvDone, JobID: job.id, Key: job.key, Width: width, Attempts: attempts})
	case StateFailed:
		s.completed[cFailed].Add(1)
		s.journalAppend(journal.Record{Event: journal.EvFailed, JobID: job.id, Attempts: attempts, Error: err.Error()})
	default:
		s.completed[cCanceled].Add(1)
		s.journalAppend(journal.Record{Event: journal.EvCanceled, JobID: job.id, Attempts: attempts, Error: err.Error()})
	}
	if s.cfg.Results != nil {
		// Terminal either way: the resume checkpoint has served its purpose.
		s.cfg.Results.Delete(checkpointKey(job.id))
	}
	return rc
}

// checkpointKey is the result-store key filing a job's latest pathfinder
// checkpoint.
func checkpointKey(jobID string) string { return "ckpt-" + jobID }

// durableFor returns the checkpoint/resume wiring for one attempt of job,
// or nil when the job cannot checkpoint: only parallel-mode routes have
// serializable engine state (sequential and minwidth runs are cheap to
// restart from scratch, so recovery just re-runs them).
func (s *Service) durableFor(job *Job) *router.DurableConfig {
	if s.cfg.Results == nil || job.mode != ModeRoute || !job.opts.Parallel {
		return nil
	}
	if s.cfg.CheckpointEvery <= 0 && s.cfg.CheckpointPeriod <= 0 && job.resume == nil {
		return nil
	}
	return &router.DurableConfig{
		CheckpointEvery:  s.cfg.CheckpointEvery,
		CheckpointPeriod: s.cfg.CheckpointPeriod,
		CheckpointFn:     func(ck *pathfinder.Checkpoint) { s.persistCheckpoint(job, ck) },
		Resume:           job.resume,
	}
}

// persistCheckpoint files one pathfinder snapshot under the job's
// checkpoint key and journals the iteration it covers. Persistence errors
// degrade durability only — the route keeps running.
func (s *Service) persistCheckpoint(job *Job, ck *pathfinder.Checkpoint) {
	if err := s.cfg.Results.Put(checkpointKey(job.id), ck); err != nil {
		s.stats.Record(func(st *stats.Snapshot) { st.JournalAppendErrors++ })
		return
	}
	s.stats.Record(func(st *stats.Snapshot) { st.CheckpointsWritten++ })
	job.noteCheckpoint()
	s.journalAppend(journal.Record{Event: journal.EvCheckpointed, JobID: job.id, Iteration: ck.Iteration})
}

// attempt executes one try of the job under panic isolation: a panic on the
// worker (or funneled up from a scan or net-worker goroutine, see
// faultpoint.GoroutinePanic) is converted into a transient PanicError
// instead of unwinding past the job and killing the daemon.
func (s *Service) attempt(rc *router.Context, cc context.Context, job *Job) (width int, res *router.Result, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			width, res = 0, nil
			if gp, ok := p.(*faultpoint.GoroutinePanic); ok {
				err = &PanicError{Value: gp.Value, Stack: gp.Stack}
			} else {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}
	}()
	faultpoint.Check(faultpoint.ServiceWorker)
	if dc := s.durableFor(job); dc != nil {
		restore := rc.BindDurable(dc)
		defer restore()
	}
	switch job.mode {
	case ModeRoute:
		res, err = router.RouteContext(cc, rc, job.ckt, job.width, job.opts)
		if res != nil {
			width = res.Width
		}
	case ModeMinWidth:
		width, res, _, err = router.MinWidthContext(cc, rc, job.ckt, job.width, job.opts)
	}
	return width, res, err, false
}

// sleepBackoff blocks for the attempt's backoff delay — base doubled per
// attempt, capped, plus up to 50% random jitter to decorrelate retry storms
// — and reports false if cc was canceled first.
func sleepBackoff(cc context.Context, base time.Duration, attempt int) bool {
	if base <= 0 {
		return cc.Err() == nil
	}
	d := base << min(attempt, 10)
	const maxDelay = 30 * time.Second
	if d > maxDelay {
		d = maxDelay
	}
	d += time.Duration(rand.Int64N(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-cc.Done():
		return false
	case <-t.C:
		return true
	}
}

// observeJobDuration feeds one finished job's wall time into the ring
// behind the computed Retry-After.
func (s *Service) observeJobDuration(d time.Duration) {
	s.durMu.Lock()
	s.durRing[s.durCount%jobDurationWindow] = d
	s.durCount++
	s.durMu.Unlock()
}

// meanJobDuration averages the recent-job ring (zero with no samples yet).
func (s *Service) meanJobDuration() time.Duration {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	n := min(s.durCount, jobDurationWindow)
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += s.durRing[i]
	}
	return sum / time.Duration(n)
}

// retryAfterFor estimates, in whole seconds, how long a rejected client
// should wait before resubmitting: the queue's expected drain time (queued
// jobs × mean job time ÷ workers), clamped to [1s, 60s]. A pure function of
// its inputs so the estimate is unit-testable without a live queue.
func retryAfterFor(queued int, mean time.Duration, workers int) int {
	if queued < 0 {
		queued = 0
	}
	if workers < 1 {
		workers = 1
	}
	if mean <= 0 {
		return 1
	}
	drain := time.Duration(queued) * mean / time.Duration(workers)
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// retryAfterSeconds is retryAfterFor over the live queue state.
func (s *Service) retryAfterSeconds() int {
	return retryAfterFor(len(s.queue), s.meanJobDuration(), s.cfg.Workers)
}
