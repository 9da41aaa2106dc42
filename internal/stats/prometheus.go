package stats

import (
	"fmt"
	"io"
)

// WritePrometheus writes the snapshot's counters in the Prometheus text
// exposition format, each metric name prefixed with prefix (for example
// "fpgarouter"). The service's /metrics endpoint (cmd/routed) composes this
// with its own job-queue gauges; it is equally usable for ad-hoc scraping
// of a batch run.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	counter("sssp_runs_total", "Dijkstra executions.", s.SSSPRuns)
	counter("heap_pushes_total", "Dijkstra heap insertions.", s.HeapPushes)
	counter("nets_routed_total", "Successful single-net routes.", s.NetsRouted)
	counter("net_failures_total", "Failed single-net route attempts.", s.NetFailures)
	counter("passes_total", "Rip-up/re-route passes.", s.Passes)
	counter("ripups_total", "Nets ripped up after failed passes.", s.RipUps)
	counter("width_probes_total", "Route calls issued by channel-width searches.", s.WidthProbes)
	counter("candidate_evals_total", "Steiner-candidate evaluations.", s.CandidateEvals)
	counter("candidates_screened_total", "Steiner-candidate evaluations the IKMB cost screen ruled out without building a tree.", s.Screened)
	counter("steiner_points_total", "Steiner points admitted.", s.SteinerPoints)
	counter("parallel_scans_total", "Candidate-scan rounds fanned out over workers.", s.ParallelScans)
	counter("job_retries_total", "Service-job retries after transient failures.", s.JobRetries)
	counter("worker_panics_total", "Worker panics recovered by per-job isolation.", s.JobPanics)
	counter("partial_results_total", "Interrupted runs that returned a partial result.", s.PartialResults)
	counter("pathfinder_iterations_total", "Negotiated-congestion iterations of the parallel router.", s.PathfinderIters)
	counter("overflow_edges", "Overcapacity resources summed over pathfinder iterations.", s.OverflowEdges)
	counter("price_updates_total", "History-price sub-gradient updates applied by pathfinder reduces.", s.PriceUpdates)
	counter("incremental_reroutes_total", "Nets reconnected from a retained fragment by partial rip-up.", s.IncrementalReroutes)
	counter("edges_ripped_total", "Previous-tree edges discarded before rerouting.", s.EdgesRipped)
	counter("edges_retained_total", "Previous-tree edges kept by partial rip-up.", s.EdgesRetained)
	counter("reduce_edges_skipped_total", "Tree edges the delta reduce skipped versus a full recount.", s.ReduceEdgesSkipped)
	counter("checkpoints_written_total", "Pathfinder checkpoints persisted to the durable store.", s.CheckpointsWritten)
	counter("jobs_recovered_total", "Interrupted jobs re-enqueued by journal replay at startup.", s.JobsRecovered)
	counter("journal_replay_records_total", "Intact journal records read back at startup.", s.JournalReplayRecords)
	counter("journal_append_errors_total", "Journal appends dropped after read-only degradation.", s.JournalAppendErrors)

	fmt.Fprintf(w, "# HELP %s_scan_wall_seconds_total Wall-clock time of parallel candidate scans.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_scan_wall_seconds_total counter\n", prefix)
	fmt.Fprintf(w, "%s_scan_wall_seconds_total %g\n", prefix, s.ScanWall.Seconds())
	fmt.Fprintf(w, "# HELP %s_scan_cpu_seconds_total Summed per-worker busy time of parallel candidate scans.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_scan_cpu_seconds_total counter\n", prefix)
	fmt.Fprintf(w, "%s_scan_cpu_seconds_total %g\n", prefix, s.ScanCPU.Seconds())

	fmt.Fprintf(w, "# HELP %s_net_time_seconds_total Cumulative single-net routing time.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_net_time_seconds_total counter\n", prefix)
	fmt.Fprintf(w, "%s_net_time_seconds_total %g\n", prefix, s.NetTime.Seconds())
	fmt.Fprintf(w, "# HELP %s_net_time_max_seconds Slowest single-net route observed.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_net_time_max_seconds gauge\n", prefix)
	fmt.Fprintf(w, "%s_net_time_max_seconds %g\n", prefix, s.MaxNetTime.Seconds())

	fmt.Fprintf(w, "# HELP %s_span_utilization_spans Channel spans binned by utilization decile at final fabric states.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_span_utilization_spans counter\n", prefix)
	for i, n := range s.Congestion {
		fmt.Fprintf(w, "%s_span_utilization_spans{decile=\"%d\"} %d\n", prefix, i, n)
	}
}
