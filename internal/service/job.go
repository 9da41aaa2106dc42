package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/router"
)

// Mode selects what a job computes.
type Mode string

const (
	// ModeRoute routes the circuit at one channel width.
	ModeRoute Mode = "route"
	// ModeMinWidth searches the minimum routable channel width.
	ModeMinWidth Mode = "minwidth"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed, canceled}, except that a queued job
// canceled before a worker picks it up goes straight to canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no further transitions are possible.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SubmitRequest is the POST /jobs body. Exactly one of Circuit (a named
// paper benchmark, synthesized server-side with Seed) or Netlist (an inline
// circuit in the JSON wire format of internal/circuits) must be given.
type SubmitRequest struct {
	// Mode is "route" or "minwidth".
	Mode Mode `json:"mode"`
	// Circuit names a paper benchmark circuit (see fpgaroute -list).
	Circuit string `json:"circuit,omitempty"`
	// Seed is the synthesis seed for a named circuit (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Netlist is an inline circuit in the JSON wire format.
	Netlist *circuits.Circuit `json:"netlist,omitempty"`
	// Width is the channel width for mode "route" (0 = the paper's best
	// known width for named circuits).
	Width int `json:"width,omitempty"`
	// StartWidth seeds the search for mode "minwidth" (0 = the paper's
	// best known width, falling back to the search default).
	StartWidth int `json:"start_width,omitempty"`
	// TimeoutMs bounds the job's execution time, measured from the moment
	// a worker starts it; past the deadline the run is abandoned at the
	// next pass/net boundary and the job ends canceled (carrying any
	// partial result). 0 = no deadline; negative or beyond MaxTimeoutMs is
	// rejected.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxRetries bounds how many times a transiently failing attempt
	// (recovered panic, injected transient fault) is retried. 0 selects the
	// default (2); negative disables retries; values above 10 are clamped.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMs is the base backoff before the first retry, doubled
	// per attempt with jitter. 0 selects the default (50); negative means
	// no backoff; values above 60000 are clamped.
	RetryBackoffMs int64 `json:"retry_backoff_ms,omitempty"`
	// Options configures the router (JSON tags on router.Options).
	Options router.Options `json:"options"`
}

// Wire-format bounds and defaults for the fields above.
const (
	// MaxTimeoutMs caps timeout_ms at 24 hours; anything beyond is a
	// misconfigured client, rejected rather than silently truncated.
	MaxTimeoutMs = int64(24 * time.Hour / time.Millisecond)
	// DefaultMaxRetries is the retry budget when max_retries is 0.
	DefaultMaxRetries = 2
	// MaxMaxRetries clamps max_retries.
	MaxMaxRetries = 10
	// DefaultRetryBackoffMs is the base backoff when retry_backoff_ms is 0.
	DefaultRetryBackoffMs = int64(50)
	// MaxRetryBackoffMs clamps retry_backoff_ms.
	MaxRetryBackoffMs = int64(60_000)
)

// Status is the GET /jobs/{id} body (and the POST /jobs response).
type Status struct {
	ID          string     `json:"id"`
	Mode        Mode       `json:"mode"`
	Circuit     string     `json:"circuit"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Width is the routed (or minimum) channel width once the job is done —
	// or, for an interrupted job holding a partial result, the best width
	// reached before the interruption.
	Width int `json:"width,omitempty"`
	// Attempts counts executions of the job including retries (1 = no
	// retry was needed; 0 = never ran).
	Attempts int `json:"attempts,omitempty"`
	// Stack is the recovered goroutine stack when the job failed from a
	// panic after exhausting its retry budget.
	Stack string `json:"stack,omitempty"`
	// Checkpoints counts pathfinder snapshots persisted for this job (only
	// durable parallel-mode routes write any).
	Checkpoints int `json:"checkpoints,omitempty"`
	// Recovered marks a job re-enqueued (or reconstructed) by journal
	// replay after a restart rather than submitted to this process.
	Recovered bool `json:"recovered,omitempty"`
	// CacheHit marks a job answered from the durable result store at
	// submission: an identical (mode, circuit, width, options) request was
	// already completed, so the job went straight to done.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// ResultResponse is the GET /jobs/{id}/result body. Complete distinguishes
// a finished job's full answer from the best partial result of a job that
// was canceled, timed out, or failed mid-run (graceful degradation): for a
// partial minwidth result, Width is the best feasible width found before
// the interruption; for a partial route result, Result.Partial is set and
// Result.FailedNets lists the nets without trees.
type ResultResponse struct {
	ID       string         `json:"id"`
	Mode     Mode           `json:"mode"`
	Width    int            `json:"width"`
	Complete bool           `json:"complete"`
	Error    string         `json:"error,omitempty"` // why the result is partial
	Result   *router.Result `json:"result"`
}

// Job is one queued or executing routing request. The circuit is resolved
// at submit time so malformed requests fail synchronously with a 400.
type Job struct {
	id      string
	mode    Mode
	ckt     *circuits.Circuit
	cktJSON []byte // a named circuit's wire JSON, from the memo (nil inline)
	cktName string // survives recovery of terminal jobs, whose ckt stays nil
	opts    router.Options
	width   int // route mode: channel width; minwidth mode: start width
	timeout time.Duration
	retries int           // transient-failure retry budget
	backoff time.Duration // base backoff before the first retry

	// Durability plumbing (zero in a purely in-memory service): key is the
	// content address of (mode, circuit, width, options) — the result-store
	// and idempotency key; resume is the checkpoint recovery loaded for a
	// re-enqueued parallel route (cleared if the engine rejects it).
	key    string
	resume *pathfinder.Checkpoint

	ctx    context.Context // canceled by Cancel, shutdown, or job timeout
	cancel context.CancelFunc

	mu          sync.Mutex
	state       State
	err         string
	stack       string       // recovered panic stack, when the job failed from one
	result      *resultEntry // nil until a result exists; shared by cache hits
	complete    bool         // result is a finished answer, not a partial snapshot
	attempts    int
	outWidth    int
	checkpoints int
	recovered   bool
	cacheHit    bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
}

// resolveJob validates a submit request into a runnable job (without ID or
// cancellation plumbing, which the service attaches on admission). A named
// circuit comes from memo, synthesized there on a miss.
func resolveJob(req *SubmitRequest, memo *circuitMemo) (*Job, error) {
	if req.Mode != ModeRoute && req.Mode != ModeMinWidth {
		return nil, fmt.Errorf("mode must be %q or %q", ModeRoute, ModeMinWidth)
	}
	if (req.Circuit == "") == (req.Netlist == nil) {
		return nil, errors.New("exactly one of circuit or netlist must be given")
	}
	if req.TimeoutMs < 0 {
		return nil, errors.New("timeout_ms must be non-negative")
	}
	if req.TimeoutMs > MaxTimeoutMs {
		return nil, fmt.Errorf("timeout_ms must be at most %d (24h)", MaxTimeoutMs)
	}
	if err := req.Options.CheckAlgorithms(); err != nil {
		return nil, err
	}
	retries := req.MaxRetries
	switch {
	case retries == 0:
		retries = DefaultMaxRetries
	case retries < 0:
		retries = 0
	case retries > MaxMaxRetries:
		retries = MaxMaxRetries
	}
	backoffMs := req.RetryBackoffMs
	switch {
	case backoffMs == 0:
		backoffMs = DefaultRetryBackoffMs
	case backoffMs < 0:
		backoffMs = 0
	case backoffMs > MaxRetryBackoffMs:
		backoffMs = MaxRetryBackoffMs
	}
	job := &Job{
		mode:    req.Mode,
		opts:    req.Options,
		timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		retries: retries,
		backoff: time.Duration(backoffMs) * time.Millisecond,
		state:   StateQueued,
	}
	paperBest := 0
	if req.Netlist != nil {
		if len(req.Netlist.Nets) == 0 {
			return nil, errors.New("netlist has no nets")
		}
		job.ckt = req.Netlist
		job.cktName = req.Netlist.Name
	} else {
		spec, ok := circuits.SpecByName(req.Circuit)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		nc, err := memo.get(spec, seed)
		if err != nil {
			return nil, err
		}
		job.ckt, job.cktJSON = nc.ckt, nc.wire
		job.cktName = nc.ckt.Name
		paperBest = spec.PaperIKMB
	}
	switch req.Mode {
	case ModeRoute:
		job.width = req.Width
		if job.width <= 0 {
			job.width = paperBest
		}
		if job.width <= 0 {
			return nil, errors.New("width must be given for inline netlists in mode route")
		}
	case ModeMinWidth:
		job.width = req.StartWidth
		if job.width <= 0 {
			job.width = paperBest // 0 falls through to MinWidthCtx's default start
		}
	}
	return job, nil
}

// Cancel requests cooperative cancellation: a queued job flips to canceled
// immediately (reported by the return, so the service journals the terminal
// event exactly once); a running job's router run aborts at its next
// pass/net boundary and the worker records the canceled state.
func (j *Job) Cancel() (immediate bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.err = "canceled before execution"
		j.finished = time.Now()
		immediate = true
	}
	j.mu.Unlock()
	j.cancel()
	return immediate
}

// begin transitions queued → running; it reports false if the job was
// already canceled (the worker then skips it).
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the run's outcome, classifying cancellation (including
// deadline expiry) separately from routing failure. An interrupted or
// failed run that still produced a partial result keeps it, so GET
// /jobs/{id}/result can serve the best-effort answer with complete=false.
func (j *Job) finish(width int, res *resultEntry, err error, attempts int) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.attempts = attempts
	switch {
	case err == nil:
		j.state = StateDone
		j.outWidth = width
		j.result = res
		j.complete = true
	case errors.Is(err, router.ErrCanceled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err.Error()
		j.result = res
		j.outWidth = width
	default:
		j.state = StateFailed
		j.err = err.Error()
		j.result = res
		j.outWidth = width
		var pe *PanicError
		if errors.As(err, &pe) {
			j.stack = string(pe.Stack)
		}
	}
	return j.state
}

// noteCheckpoint counts one persisted pathfinder snapshot for the status
// report.
func (j *Job) noteCheckpoint() {
	j.mu.Lock()
	j.checkpoints++
	j.mu.Unlock()
}

// StateNow returns the job's current lifecycle state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the wire.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		Mode:        j.mode,
		Circuit:     j.cktName,
		State:       j.state,
		SubmittedAt: j.submitted,
		Error:       j.err,
		Width:       j.outWidth,
		Attempts:    j.attempts,
		Stack:       j.stack,
		Checkpoints: j.checkpoints,
		Recovered:   j.recovered,
		CacheHit:    j.cacheHit,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Result returns the routing result once the job is terminal: the full
// answer of a done job (Complete true), or the best partial result of a
// canceled/failed one (Complete false, Error explaining why), with the
// entry holding its cached encoding. A terminal job with nothing routed —
// and any job still queued or running — has no result to serve.
func (j *Job) Result() (ResultResponse, *resultEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() || j.result == nil {
		return ResultResponse{}, nil, fmt.Errorf("job %s is %s, not %s", j.id, j.state, StateDone)
	}
	rr := ResultResponse{
		ID:       j.id,
		Mode:     j.mode,
		Width:    j.outWidth,
		Complete: j.complete,
		Result:   j.result.res,
	}
	if !j.complete {
		rr.Error = j.err
	}
	return rr, j.result, nil
}
