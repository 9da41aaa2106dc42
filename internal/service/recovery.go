// Crash recovery: a durable service reconstructs its job registry from the
// write-ahead journal before accepting traffic. Replay reduces each job's
// event history to its last state — terminal jobs come back as servable
// history (done results re-read from the content store), interrupted jobs
// are re-enqueued through the same validation path as a fresh submission,
// and a parallel route that had checkpointed resumes from its latest
// snapshot instead of iteration one (bit-identical to the uninterrupted
// run, by the pathfinder's checkpoint parity contract).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"fpgarouter/internal/journal"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/stats"
)

// RecoveryReport summarizes what journal replay reconstructed.
type RecoveryReport struct {
	// ReplayedRecords counts intact journal records read back;
	// SalvagedBytes the torn-tail bytes truncated away (see journal.Open).
	ReplayedRecords int   `json:"replayed_records"`
	SalvagedBytes   int64 `json:"salvaged_bytes"`
	// Completed counts terminal jobs reconstructed as servable history,
	// Requeued the interrupted jobs sent back through the queue, and
	// Resumed how many of those carry a pathfinder checkpoint.
	Completed int `json:"completed"`
	Requeued  int `json:"requeued"`
	Resumed   int `json:"resumed"`
	// Unrecoverable lists jobs whose journaled request no longer resolves
	// (reconstructed as failed so their history stays visible).
	Unrecoverable []string `json:"unrecoverable,omitempty"`
}

// OpenDurable opens (creating if needed) the journal and result store
// under dir — dir/journal.wal and dir/store — and recovers a service from
// them. The caller owns closing cfg.Journal after Shutdown; OpenDurable
// closes it only on error.
func OpenDurable(dir string, cfg Config) (*Service, RecoveryReport, error) {
	j, rep, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	store, err := journal.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		j.Close()
		return nil, RecoveryReport{}, err
	}
	cfg.Journal = j
	cfg.Results = store
	s, report, err := Recover(cfg, rep)
	if err != nil {
		j.Close()
	}
	return s, report, err
}

// jobHistory is one job's journal events reduced to their latest state.
type jobHistory struct {
	id        string
	submitted journal.Record // the EvSubmitted record (request + key)
	last      journal.Record // the latest event seen
	started   bool
}

// Recover builds a service from cfg and a journal replay: terminal jobs
// are reconstructed in place, interrupted ones re-enqueued (in their
// original submission order, ahead of any new traffic), and only then do
// the workers start. An empty replay (or nil) degenerates to New.
func Recover(cfg Config, rep *journal.Replay) (*Service, RecoveryReport, error) {
	var report RecoveryReport
	var histories []*jobHistory
	byID := make(map[string]*jobHistory)
	if rep != nil {
		report.ReplayedRecords = len(rep.Records)
		report.SalvagedBytes = rep.SalvagedBytes
		for _, rec := range rep.Records {
			h := byID[rec.JobID]
			if h == nil {
				if rec.Event != journal.EvSubmitted {
					// An orphaned record (its submission sat past a salvaged
					// tear): nothing to rebuild from, skip the job.
					continue
				}
				h = &jobHistory{id: rec.JobID, submitted: rec}
				byID[rec.JobID] = h
				histories = append(histories, h)
			}
			if rec.Event == journal.EvStarted {
				h.started = true
			}
			h.last = rec
		}
	}

	s := newService(cfg, len(histories))
	s.stats.Record(func(st *stats.Snapshot) { st.JournalReplayRecords += int64(report.ReplayedRecords) })
	maxSeq := int64(0)
	for _, h := range histories {
		if n, err := strconv.ParseInt(strings.TrimPrefix(h.id, "job-"), 10, 64); err == nil && n > maxSeq {
			maxSeq = n
		}
		job, requeue := s.recoverJob(h, &report)
		if job == nil {
			continue
		}
		s.jobs[h.id] = job
		s.order = append(s.order, h.id)
		if requeue {
			select {
			case s.queue <- job:
			default:
				// The widened queue holds every history by construction; a
				// full queue here means the journal lied — fail the job
				// rather than dropping it silently.
				job.finish(0, nil, fmt.Errorf("recovery: queue full for %s", h.id), 0)
				report.Requeued--
				report.Unrecoverable = append(report.Unrecoverable, h.id)
			}
		}
	}
	s.seq = maxSeq
	s.startWorkers()
	return s, report, nil
}

// recoverJob rebuilds one job from its reduced history, reporting whether
// it must be re-enqueued. Terminal jobs come back terminal (done results
// re-read from the store); non-terminal jobs are re-resolved from the
// journaled request and run again, resuming from their latest checkpoint
// when one was persisted.
func (s *Service) recoverJob(h *jobHistory, report *RecoveryReport) (*Job, bool) {
	var req SubmitRequest
	reqErr := json.Unmarshal(h.submitted.Request, &req)

	terminalErr := func(msg string) *Job {
		// Reconstruct enough of the job for status/listing even when the
		// request no longer resolves.
		job := &Job{id: h.id, mode: req.Mode, cktName: req.Circuit, key: h.submitted.Key, state: StateQueued, recovered: true}
		job.ctx, job.cancel = context.WithCancel(s.base)
		job.submitted = h.submitted.Time
		job.finish(0, nil, fmt.Errorf("recovery: %s", msg), 0)
		report.Unrecoverable = append(report.Unrecoverable, h.id)
		return job
	}

	switch h.last.Event {
	case journal.EvDone:
		if reqErr != nil {
			return terminalErr("journaled request unreadable: " + reqErr.Error()), false
		}
		job := &Job{id: h.id, mode: req.Mode, cktName: req.Circuit, key: h.last.Key, state: StateDone, recovered: true}
		if req.Netlist != nil {
			job.cktName = req.Netlist.Name
		}
		job.ctx, job.cancel = context.WithCancel(s.base)
		job.submitted = h.submitted.Time
		job.finished = h.last.Time
		job.complete = true
		job.outWidth = h.last.Width
		job.attempts = h.last.Attempts
		if stored, ok := s.lookupResult(h.last.Key); ok {
			job.result = stored.Result
			job.outWidth = stored.Width
		}
		report.Completed++
		return job, false
	case journal.EvFailed, journal.EvCanceled:
		if reqErr != nil {
			return terminalErr("journaled request unreadable: " + reqErr.Error()), false
		}
		job := &Job{id: h.id, mode: req.Mode, cktName: req.Circuit, key: h.submitted.Key, recovered: true}
		if req.Netlist != nil {
			job.cktName = req.Netlist.Name
		}
		job.ctx, job.cancel = context.WithCancel(s.base)
		job.submitted = h.submitted.Time
		job.finished = h.last.Time
		job.attempts = h.last.Attempts
		job.err = h.last.Error
		if h.last.Event == journal.EvFailed {
			job.state = StateFailed
		} else {
			job.state = StateCanceled
		}
		report.Completed++
		return job, false
	}

	// Interrupted: submitted, maybe started, maybe checkpointed. Re-resolve
	// through the same validation as a fresh submission and re-enqueue
	// under the original ID (idempotency: the content key is unchanged).
	if reqErr != nil {
		return terminalErr("journaled request unreadable: " + reqErr.Error()), false
	}
	job, err := resolveJob(&req)
	if err != nil {
		return terminalErr("journaled request no longer resolves: " + err.Error()), false
	}
	job.id = h.id
	job.key = h.submitted.Key
	job.recovered = true
	job.ctx, job.cancel = context.WithCancel(s.base)
	job.submitted = h.submitted.Time
	if ck := s.loadCheckpoint(h.id, job); ck != nil {
		job.resume = ck
		report.Resumed++
	}
	report.Requeued++
	s.stats.Record(func(st *stats.Snapshot) { st.JobsRecovered++ })
	return job, true
}

// loadCheckpoint reads the job's persisted pathfinder snapshot, if it can
// be used: only parallel-mode routes resume (anything else re-runs from
// scratch, cheaply). A missing or unreadable blob is a silent restart.
func (s *Service) loadCheckpoint(id string, job *Job) *pathfinder.Checkpoint {
	if s.cfg.Results == nil || job.mode != ModeRoute || !job.opts.Parallel {
		return nil
	}
	ck := new(pathfinder.Checkpoint)
	if ok, err := s.cfg.Results.Get(checkpointKey(id), ck); !ok || err != nil {
		return nil
	}
	return ck
}
