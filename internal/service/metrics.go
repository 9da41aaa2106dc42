package service

import (
	"fmt"
	"io"
	"net/http"
)

// metricsPrefix names every exported metric family.
const metricsPrefix = "fpgarouter"

// WriteMetrics writes the service's Prometheus text exposition: job-queue
// counters and gauges, then the shared router work counters (see
// stats.Snapshot.WritePrometheus).
func (s *Service) WriteMetrics(w io.Writer) {
	metric := func(kind, name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %d\n",
			metricsPrefix, name, help, metricsPrefix, name, kind, metricsPrefix, name, v)
	}
	metric("counter", "jobs_submitted_total", "Jobs admitted to the queue.", s.submitted.Load())
	metric("counter", "jobs_cache_hits_total", "Submissions answered done on arrival from the result cache.", s.cacheHits.Load())
	metric("counter", "jobs_rejected_total", "Submissions rejected (queue full or draining).", s.rejected.Load())
	fmt.Fprintf(w, "# HELP %s_jobs_completed_total Jobs finished, by terminal state.\n", metricsPrefix)
	fmt.Fprintf(w, "# TYPE %s_jobs_completed_total counter\n", metricsPrefix)
	for i, state := range []State{StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "%s_jobs_completed_total{state=%q} %d\n", metricsPrefix, state, s.completed[i].Load())
	}
	metric("gauge", "jobs_running", "Jobs currently executing on a worker.", s.running.Load())
	metric("gauge", "jobs_queued", "Jobs waiting for a worker.", int64(len(s.queue)))
	metric("gauge", "workers", "Worker-pool size.", int64(s.cfg.Workers))
	s.stats.Snapshot().WritePrometheus(w, metricsPrefix)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}
