// Package stats is the router's observability layer: a concurrency-safe
// collector of per-pass work counters (SSSP invocations, heap pushes,
// rip-ups, candidate-scan evaluations, per-net routing time, channel-span
// congestion histogram) that costs nothing when absent.
//
// Each counter is declared once, as a Snapshot field whose struct tags
// carry its Prometheus name, type and help text; WritePrometheus renders
// every field from those tags. Recording goes through Collector.Record,
// which applies a function to the counters under the collector's mutex:
// one collector is shared by the service's workers and by the pathfinder's
// net workers. Every record method is a no-op on a nil *Collector, so the
// router unconditionally calls them and callers opt in by attaching a
// collector to their routing Context (cmd/fpgaroute -stats, cmd/tables
// -stats, or the experiments harnesses).
package stats

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// CongestionBuckets is the number of bins in the span-utilization
// histogram: bucket i covers utilization fractions [i/10, (i+1)/10), with
// fully used spans landing in the last bucket.
const CongestionBuckets = 10

// Collector accumulates router work counters. The zero value is ready to
// use; a nil *Collector is also valid and records nothing.
type Collector struct {
	mu sync.Mutex
	s  Snapshot
}

// New returns an empty collector.
func New() *Collector { return new(Collector) }

// Enabled reports whether the collector actually records (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// Record applies f to the counters under the collector's lock, so f sees
// and leaves them consistent; on a nil collector it does nothing. Callers
// pass a function that adds to the fields they count, for example
// c.Record(func(s *stats.Snapshot) { s.Passes++ }). Since f runs under the
// lock, it must only update fields: no blocking, no call back into c.
func (c *Collector) Record(f func(*Snapshot)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.s)
}

// ObserveNet records one net-routing attempt: its wall time and outcome.
func (c *Collector) ObserveNet(d time.Duration, ok bool) {
	c.Record(func(s *Snapshot) {
		if ok {
			s.NetsRouted++
		} else {
			s.NetFailures++
		}
		s.NetTime += d
		if d > s.MaxNetTime {
			s.MaxNetTime = d
		}
	})
}

// RecordCongestion bins each channel span's utilization fraction
// (used/width) into the congestion histogram; the router records the final
// fabric state of each successfully routed circuit.
func (c *Collector) RecordCongestion(used []int32, width int) {
	if width <= 0 {
		return
	}
	c.Record(func(s *Snapshot) {
		for _, u := range used {
			b := int(u) * CongestionBuckets / width
			if b >= CongestionBuckets {
				b = CongestionBuckets - 1
			}
			if b < 0 {
				b = 0
			}
			s.Congestion[b]++
		}
	})
}

// Snapshot holds the collector's counters, and declares them: each field's
// metric tag is its Prometheus name (behind the caller's prefix), with
// ",gauge" for a gauge and a counter otherwise, and its help tag is the
// HELP text. WritePrometheus renders the fields in this order.
type Snapshot struct {
	// SSSPRuns and HeapPushes count Dijkstra executions and their heap
	// insertions (the router feeds deltas of its scratch's counters per net).
	SSSPRuns    int64 `metric:"sssp_runs_total" help:"Dijkstra executions."`
	HeapPushes  int64 `metric:"heap_pushes_total" help:"Dijkstra heap insertions."`
	NetsRouted  int64 `metric:"nets_routed_total" help:"Successful single-net routes."`
	NetFailures int64 `metric:"net_failures_total" help:"Failed single-net route attempts."`
	Passes      int64 `metric:"passes_total" help:"Rip-up/re-route passes."`
	RipUps      int64 `metric:"ripups_total" help:"Nets ripped up after failed passes."`
	WidthProbes int64 `metric:"width_probes_total" help:"Route calls issued by channel-width searches."`
	// Candidate-scan work of the iterated constructions: base-heuristic
	// evaluations, the share of them IKMB's cost screen ruled out without
	// building a tree, admitted Steiner points, and the scan rounds that
	// fanned out over more than one worker goroutine.
	CandidateEvals int64 `metric:"candidate_evals_total" help:"Steiner-candidate evaluations."`
	Screened       int64 `metric:"candidates_screened_total" help:"Steiner-candidate evaluations the IKMB cost screen ruled out without building a tree."`
	SteinerPoints  int64 `metric:"steiner_points_total" help:"Steiner points admitted."`
	ParallelScans  int64 `metric:"parallel_scans_total" help:"Candidate-scan rounds fanned out over workers."`
	// Service fault tolerance: retries of transiently failed jobs, worker
	// panics recovered by per-job isolation (the routing context involved is
	// discarded, not pooled), and interrupted runs that still surrendered a
	// partial result.
	JobRetries     int64 `metric:"job_retries_total" help:"Service-job retries after transient failures."`
	JobPanics      int64 `metric:"worker_panics_total" help:"Worker panics recovered by per-job isolation."`
	PartialResults int64 `metric:"partial_results_total" help:"Interrupted runs that returned a partial result."`
	// Pathfinder counters: negotiated-congestion iterations, overflowed
	// resources summed over iterations, and history-price updates applied.
	PathfinderIters int64 `metric:"pathfinder_iterations_total" help:"Negotiated-congestion iterations of the parallel router."`
	OverflowEdges   int64 `metric:"overflow_edges" help:"Overcapacity resources summed over pathfinder iterations."`
	PriceUpdates    int64 `metric:"price_updates_total" help:"History-price sub-gradient updates applied by pathfinder reduces."`
	// Incremental rip-up accounting: nets reconnected from a retained
	// fragment, previous-tree edges ripped vs retained, and tree edges the
	// delta reduce skipped walking relative to a full recount.
	IncrementalReroutes int64 `metric:"incremental_reroutes_total" help:"Nets reconnected from a retained fragment by partial rip-up."`
	EdgesRipped         int64 `metric:"edges_ripped_total" help:"Previous-tree edges discarded before rerouting."`
	EdgesRetained       int64 `metric:"edges_retained_total" help:"Previous-tree edges kept by partial rip-up."`
	ReduceEdgesSkipped  int64 `metric:"reduce_edges_skipped_total" help:"Tree edges the delta reduce skipped versus a full recount."`
	// Durability counters: pathfinder checkpoints persisted, jobs recovered
	// by journal replay, journal records replayed at startup, and appends
	// dropped after the journal degraded to read-only.
	CheckpointsWritten   int64 `metric:"checkpoints_written_total" help:"Pathfinder checkpoints persisted to the durable store."`
	JobsRecovered        int64 `metric:"jobs_recovered_total" help:"Interrupted jobs re-enqueued by journal replay at startup."`
	JournalReplayRecords int64 `metric:"journal_replay_records_total" help:"Intact journal records read back at startup."`
	JournalAppendErrors  int64 `metric:"journal_append_errors_total" help:"Journal appends dropped after read-only degradation."`
	// ScanWall and ScanCPU are the parallel scans' total wall-clock and
	// summed per-worker busy time; ScanCPU/ScanWall is the achieved scan
	// parallelism. Sequential scans record neither.
	ScanWall   time.Duration            `metric:"scan_wall_seconds_total" help:"Wall-clock time of parallel candidate scans."`
	ScanCPU    time.Duration            `metric:"scan_cpu_seconds_total" help:"Summed per-worker busy time of parallel candidate scans."`
	NetTime    time.Duration            `metric:"net_time_seconds_total" help:"Cumulative single-net routing time."`
	MaxNetTime time.Duration            `metric:"net_time_max_seconds,gauge" help:"Slowest single-net route observed."`
	Congestion [CongestionBuckets]int64 `metric:"span_utilization_spans" help:"Channel spans binned by utilization decile at final fabric states."`
}

// Snapshot returns a consistent copy of the counters.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	c.Record(func(live *Snapshot) { s = *live })
	return s
}

// String renders the snapshot as the multi-line report printed by the
// -stats flags of cmd/fpgaroute and cmd/tables.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router stats:\n")
	fmt.Fprintf(&b, "  SSSP runs          %d (heap pushes %d)\n", s.SSSPRuns, s.HeapPushes)
	fmt.Fprintf(&b, "  nets routed        %d (failures %d, rip-ups %d)\n", s.NetsRouted, s.NetFailures, s.RipUps)
	fmt.Fprintf(&b, "  passes             %d (width probes %d)\n", s.Passes, s.WidthProbes)
	fmt.Fprintf(&b, "  candidate evals    %d (screened %d, Steiner points admitted %d)\n", s.CandidateEvals, s.Screened, s.SteinerPoints)
	if s.ParallelScans > 0 {
		par := 0.0
		if s.ScanWall > 0 {
			par = float64(s.ScanCPU) / float64(s.ScanWall)
		}
		fmt.Fprintf(&b, "  parallel scans     %d (wall %v, cpu %v, parallelism %.2fx)\n", s.ParallelScans, s.ScanWall.Round(time.Microsecond), s.ScanCPU.Round(time.Microsecond), par)
	}
	if s.PathfinderIters > 0 {
		fmt.Fprintf(&b, "  pathfinder         iterations %d, overflow edges %d, price updates %d\n",
			s.PathfinderIters, s.OverflowEdges, s.PriceUpdates)
	}
	if s.EdgesRipped+s.EdgesRetained+s.IncrementalReroutes+s.ReduceEdgesSkipped > 0 {
		fmt.Fprintf(&b, "  incremental        reroutes %d, edges ripped %d, edges retained %d, reduce edges skipped %d\n",
			s.IncrementalReroutes, s.EdgesRipped, s.EdgesRetained, s.ReduceEdgesSkipped)
	}
	if s.JobRetries+s.JobPanics+s.PartialResults > 0 {
		fmt.Fprintf(&b, "  fault tolerance    retries %d, recovered panics %d, partial results %d\n",
			s.JobRetries, s.JobPanics, s.PartialResults)
	}
	if s.CheckpointsWritten+s.JobsRecovered+s.JournalReplayRecords+s.JournalAppendErrors > 0 {
		fmt.Fprintf(&b, "  durability         checkpoints written %d, jobs recovered %d, journal records replayed %d, append errors %d\n",
			s.CheckpointsWritten, s.JobsRecovered, s.JournalReplayRecords, s.JournalAppendErrors)
	}
	avg := time.Duration(0)
	if n := s.NetsRouted + s.NetFailures; n > 0 {
		avg = s.NetTime / time.Duration(n)
	}
	fmt.Fprintf(&b, "  net time           total %v, avg %v, max %v\n", s.NetTime.Round(time.Microsecond), avg.Round(time.Microsecond), s.MaxNetTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  congestion (spans by utilization decile): ")
	for i, n := range s.Congestion {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte('\n')
	return b.String()
}
