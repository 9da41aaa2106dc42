package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP API:
//
//	POST /jobs             submit a job (SubmitRequest → 202 Status)
//	GET  /jobs             list all jobs in submission order
//	GET  /jobs/{id}        job status
//	GET  /jobs/{id}/result routing result (409 until a result exists; a
//	                       partial result of an interrupted job is served
//	                       with complete=false)
//	POST /jobs/{id}/cancel request cancellation
//	GET  /healthz          liveness and pool occupancy (always 200 while
//	                       the process serves)
//	GET  /readyz           readiness: 503 while draining or saturated
//	GET  /metrics          Prometheus text exposition
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a write error mid-response
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// decodeStrict decodes one JSON body with every leniency turned off:
// unknown fields, an empty body, and trailing data after the value are all
// rejected (the golden-body tests pin the exact error strings clients see).
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return errors.New("empty request body")
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(&req)
	if err == nil {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	code := httpStatus(err)
	if code == http.StatusServiceUnavailable {
		// Estimated queue drain time, not a hard-coded constant: depth ×
		// recent mean job time ÷ workers, clamped (see retryAfterFor).
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeError(w, code, err)
}

// validListStates are the ?state= filter values GET /jobs accepts.
var validListStates = map[State]bool{
	StateQueued: true, StateRunning: true, StateDone: true,
	StateFailed: true, StateCanceled: true,
}

// handleList serves GET /jobs with optional bounds: ?limit=N keeps only
// the newest N jobs (in submission order), ?state=S keeps one lifecycle
// state. Invalid values are 400s, not silently ignored — a typo'd filter
// returning everything would be worse than an error.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if lv := q.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be a non-negative integer (got %q)", lv))
			return
		}
		limit = n
	}
	state := State(q.Get("state"))
	if state != "" && !validListStates[state] {
		writeError(w, http.StatusBadRequest, fmt.Errorf("state must be one of queued, running, done, failed, canceled (got %q)", state))
		return
	}
	writeJSON(w, http.StatusOK, s.JobsFiltered(state, limit))
}

// jobFor resolves {id}, writing the 404 itself when absent.
func (s *Service) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	rr, entry, err := j.Result()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	body, err := entry.encoded()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeResult(w, rr, body)
}

// writeResult writes rr as writeJSON(w, 200, rr) does, byte for byte, with
// the result's cached encoding in place of encoding rr.Result again.
func writeResult(w http.ResponseWriter, rr ResultResponse, result []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	str := func(v string) []byte {
		b, _ := json.Marshal(v) // a string always encodes
		return b
	}
	head := fmt.Appendf(nil, "{\n  \"id\": %s,\n  \"mode\": %s,\n  \"width\": %d,\n  \"complete\": %t,\n",
		str(rr.ID), str(string(rr.Mode)), rr.Width, rr.Complete)
	if rr.Error != "" {
		head = fmt.Appendf(head, "  \"error\": %s,\n", str(rr.Error))
	}
	head = append(head, `  "result": `...)
	w.Write(head)
	w.Write(result)
	w.Write([]byte("\n}\n"))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthBody is the GET /healthz response.
type healthBody struct {
	Status        string `json:"status"` // "ok" or "draining"
	Workers       int    `json:"workers"`
	RunningJobs   int64  `json:"running_jobs"`
	QueuedJobs    int    `json:"queued_jobs"`
	QueueCapacity int    `json:"queue_capacity"`
}

// handleHealthz is pure liveness: 200 as long as the process can answer,
// even while draining — restarting a pod because it is shutting down
// gracefully would defeat the drain. Orchestrators should route traffic on
// /readyz and restart on /healthz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthBody{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		RunningJobs:   s.running.Load(),
		QueuedJobs:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
	}
	if s.Draining() {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

// readyBody is the GET /readyz response.
type readyBody struct {
	Ready         bool   `json:"ready"`
	Reason        string `json:"reason,omitempty"` // why not ready
	QueuedJobs    int    `json:"queued_jobs"`
	QueueCapacity int    `json:"queue_capacity"`
	// Degraded reports reduced durability that does NOT fail readiness: a
	// journal flipped read-only (disk full) keeps serving jobs in-memory,
	// and restarting the pod would only lose the in-flight work it still
	// has. Operators alert on this field; orchestrators keep routing.
	Degraded string `json:"degraded,omitempty"`
}

// handleReadyz reports whether the service can usefully accept a new job:
// not during shutdown drain, and not while the queue is saturated (a
// submission now would be rejected with 503 anyway).
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	b := readyBody{
		Ready:         true,
		QueuedJobs:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
	}
	if err := s.JournalDegraded(); err != nil {
		b.Degraded = "journal read-only: " + err.Error()
	}
	switch {
	case s.Draining():
		b.Ready, b.Reason = false, "draining"
	case b.QueuedJobs >= b.QueueCapacity:
		b.Ready, b.Reason = false, "queue saturated"
	}
	code := http.StatusOK
	if !b.Ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, code, b)
}
