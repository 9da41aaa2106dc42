// Package stats is the router's observability layer: a concurrency-safe
// collector of per-pass work counters (SSSP invocations, heap pushes,
// rip-ups, candidate-scan evaluations, per-net routing time, channel-span
// congestion histogram) that costs nothing when absent.
//
// Every record method is a no-op on a nil *Collector, so the router
// unconditionally calls them and callers opt in by attaching a collector to
// their routing Context (cmd/fpgaroute -stats, cmd/tables -stats, or the
// experiments harnesses). All counters are atomics: one collector can be
// shared by the concurrent width probes of the parallel MinWidth search.
package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// CongestionBuckets is the number of bins in the span-utilization
// histogram: bucket i covers utilization fractions [i/10, (i+1)/10), with
// fully used spans landing in the last bucket.
const CongestionBuckets = 10

// Collector accumulates router work counters. The zero value is ready to
// use; a nil *Collector is also valid and records nothing.
type Collector struct {
	ssspRuns     atomic.Int64
	heapPushes   atomic.Int64
	netsRouted   atomic.Int64
	netFailures  atomic.Int64
	netTimeNs    atomic.Int64
	maxNetTimeNs atomic.Int64
	passes       atomic.Int64
	ripUps       atomic.Int64
	widthProbes  atomic.Int64
	candEvals    atomic.Int64
	steinerPts   atomic.Int64
	lazyHits     atomic.Int64
	fullRescans  atomic.Int64
	evalsSaved   atomic.Int64
	parScans     atomic.Int64
	scanWallNs   atomic.Int64
	scanCPUNs    atomic.Int64
	jobRetries   atomic.Int64
	jobPanics    atomic.Int64
	partials     atomic.Int64
	pfIters      atomic.Int64
	pfOverflow   atomic.Int64
	pfPriceUpds  atomic.Int64
	incReroutes  atomic.Int64
	edgesRipped  atomic.Int64
	edgesKept    atomic.Int64
	reduceSkip   atomic.Int64
	ckptWritten  atomic.Int64
	jobsRecov    atomic.Int64
	jrnlReplayed atomic.Int64
	jrnlErrors   atomic.Int64
	congestion   [CongestionBuckets]atomic.Int64
}

// New returns an empty collector.
func New() *Collector { return new(Collector) }

// Enabled reports whether the collector actually records (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// AddSSSP records runs Dijkstra executions performing pushes heap
// insertions (the router feeds deltas of its scratch's counters per net).
func (c *Collector) AddSSSP(runs, pushes int64) {
	if c == nil {
		return
	}
	c.ssspRuns.Add(runs)
	c.heapPushes.Add(pushes)
}

// ObserveNet records one net-routing attempt: its wall time and outcome.
func (c *Collector) ObserveNet(d time.Duration, ok bool) {
	if c == nil {
		return
	}
	if ok {
		c.netsRouted.Add(1)
	} else {
		c.netFailures.Add(1)
	}
	ns := d.Nanoseconds()
	c.netTimeNs.Add(ns)
	for {
		old := c.maxNetTimeNs.Load()
		if ns <= old || c.maxNetTimeNs.CompareAndSwap(old, ns) {
			break
		}
	}
}

// AddPass records one rip-up/re-route pass.
func (c *Collector) AddPass() {
	if c == nil {
		return
	}
	c.passes.Add(1)
}

// AddRipUps records n nets ripped up for re-routing after a failed pass.
func (c *Collector) AddRipUps(n int64) {
	if c == nil {
		return
	}
	c.ripUps.Add(n)
}

// AddWidthProbe records one Route call issued by a channel-width search.
func (c *Collector) AddWidthProbe() {
	if c == nil {
		return
	}
	c.widthProbes.Add(1)
}

// AddCandidateWork records an iterated construction's candidate-scan work:
// evals base-heuristic evaluations and points admitted Steiner points.
func (c *Collector) AddCandidateWork(evals, points int64) {
	if c == nil {
		return
	}
	c.candEvals.Add(evals)
	c.steinerPts.Add(points)
}

// AddLazyScan records the lazy candidate-scan queue's outcomes: hits rounds
// served with a partial evaluation, rescans exactness fallbacks, and saved
// net base-heuristic evaluations avoided versus the exhaustive scan.
func (c *Collector) AddLazyScan(hits, rescans, saved int64) {
	if c == nil {
		return
	}
	c.lazyHits.Add(hits)
	c.fullRescans.Add(rescans)
	c.evalsSaved.Add(saved)
}

// AddScans records n parallel candidate-scan rounds (rounds that actually
// fanned out over more than one worker goroutine), with their total
// wall-clock and summed per-worker busy time. cpu/wall is the achieved scan
// parallelism; sequential scans record nothing.
func (c *Collector) AddScans(n int64, wall, cpu time.Duration) {
	if c == nil || n == 0 {
		return
	}
	c.parScans.Add(n)
	c.scanWallNs.Add(wall.Nanoseconds())
	c.scanCPUNs.Add(cpu.Nanoseconds())
}

// AddJobRetry records one retry of a transiently failed service job.
func (c *Collector) AddJobRetry() {
	if c == nil {
		return
	}
	c.jobRetries.Add(1)
}

// AddJobPanic records one worker panic recovered by the service's per-job
// isolation (the routing context involved is discarded, not pooled).
func (c *Collector) AddJobPanic() {
	if c == nil {
		return
	}
	c.jobPanics.Add(1)
}

// AddPartialResult records one interrupted run that still surrendered a
// partial result (graceful degradation) instead of a bare error.
func (c *Collector) AddPartialResult() {
	if c == nil {
		return
	}
	c.partials.Add(1)
}

// AddPathfinderIteration records one negotiated-congestion iteration of the
// parallel router: how many resources ended the iteration over capacity and
// how many history-price sub-gradient updates the reduce applied.
func (c *Collector) AddPathfinderIteration(overflow, priceUpdates int64) {
	if c == nil {
		return
	}
	c.pfIters.Add(1)
	c.pfOverflow.Add(overflow)
	c.pfPriceUpds.Add(priceUpdates)
}

// AddIncremental records one pathfinder iteration's rip-up accounting:
// reroutes nets reconnected from a retained fragment, ripped previous-tree
// edges discarded before rerouting, and retained previous-tree edges kept
// by partial rip-up.
func (c *Collector) AddIncremental(reroutes, ripped, retained int64) {
	if c == nil {
		return
	}
	c.incReroutes.Add(reroutes)
	c.edgesRipped.Add(ripped)
	c.edgesKept.Add(retained)
}

// AddDeltaReduce records tree edges the delta reduce did not have to walk
// compared to the full recount over every net's tree.
func (c *Collector) AddDeltaReduce(skipped int64) {
	if c == nil {
		return
	}
	c.reduceSkip.Add(skipped)
}

// AddCheckpointWritten records one pathfinder checkpoint persisted to the
// durable store.
func (c *Collector) AddCheckpointWritten() {
	if c == nil {
		return
	}
	c.ckptWritten.Add(1)
}

// AddJobsRecovered records n interrupted jobs re-enqueued (or results
// re-served) by journal replay at startup.
func (c *Collector) AddJobsRecovered(n int64) {
	if c == nil {
		return
	}
	c.jobsRecov.Add(n)
}

// AddJournalReplay records n intact journal records read back at startup.
func (c *Collector) AddJournalReplay(n int64) {
	if c == nil {
		return
	}
	c.jrnlReplayed.Add(n)
}

// AddJournalError records one journal append dropped because the journal
// degraded (or was degrading) to read-only.
func (c *Collector) AddJournalError() {
	if c == nil {
		return
	}
	c.jrnlErrors.Add(1)
}

// RecordCongestion bins each channel span's utilization fraction
// (used/width) into the congestion histogram; the router records the final
// fabric state of each successfully routed circuit.
func (c *Collector) RecordCongestion(used []int32, width int) {
	if c == nil || width <= 0 {
		return
	}
	for _, u := range used {
		b := int(u) * CongestionBuckets / width
		if b >= CongestionBuckets {
			b = CongestionBuckets - 1
		}
		if b < 0 {
			b = 0
		}
		c.congestion[b].Add(1)
	}
}

// Snapshot is a plain-value copy of the collector's counters.
type Snapshot struct {
	SSSPRuns       int64
	HeapPushes     int64
	NetsRouted     int64
	NetFailures    int64
	NetTime        time.Duration
	MaxNetTime     time.Duration
	Passes         int64
	RipUps         int64
	WidthProbes    int64
	CandidateEvals int64
	SteinerPoints  int64
	LazyHits       int64
	FullRescans    int64
	EvalsSaved     int64
	ParallelScans  int64
	ScanWall       time.Duration
	ScanCPU        time.Duration
	JobRetries     int64
	JobPanics      int64
	PartialResults int64
	// Pathfinder counters: negotiated-congestion iterations, overflowed
	// resources summed over iterations, and history-price updates applied.
	PathfinderIters int64
	OverflowEdges   int64
	PriceUpdates    int64
	// Incremental rip-up accounting: nets reconnected from a retained
	// fragment, previous-tree edges ripped vs retained, and tree edges the
	// delta reduce skipped walking relative to a full recount.
	IncrementalReroutes int64
	EdgesRipped         int64
	EdgesRetained       int64
	ReduceEdgesSkipped  int64
	// Durability counters: pathfinder checkpoints persisted, jobs recovered
	// by journal replay, journal records replayed at startup, and appends
	// dropped after the journal degraded to read-only.
	CheckpointsWritten   int64
	JobsRecovered        int64
	JournalReplayRecords int64
	JournalAppendErrors  int64
	Congestion           [CongestionBuckets]int64
}

// Snapshot returns a consistent-enough copy of the counters (each field is
// read atomically; cross-field skew is possible while routing is live).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		SSSPRuns:       c.ssspRuns.Load(),
		HeapPushes:     c.heapPushes.Load(),
		NetsRouted:     c.netsRouted.Load(),
		NetFailures:    c.netFailures.Load(),
		NetTime:        time.Duration(c.netTimeNs.Load()),
		MaxNetTime:     time.Duration(c.maxNetTimeNs.Load()),
		Passes:         c.passes.Load(),
		RipUps:         c.ripUps.Load(),
		WidthProbes:    c.widthProbes.Load(),
		CandidateEvals: c.candEvals.Load(),
		SteinerPoints:  c.steinerPts.Load(),
		LazyHits:       c.lazyHits.Load(),
		FullRescans:    c.fullRescans.Load(),
		EvalsSaved:     c.evalsSaved.Load(),
		ParallelScans:  c.parScans.Load(),
		ScanWall:       time.Duration(c.scanWallNs.Load()),
		ScanCPU:        time.Duration(c.scanCPUNs.Load()),
		JobRetries:     c.jobRetries.Load(),
		JobPanics:      c.jobPanics.Load(),
		PartialResults: c.partials.Load(),

		PathfinderIters: c.pfIters.Load(),
		OverflowEdges:   c.pfOverflow.Load(),
		PriceUpdates:    c.pfPriceUpds.Load(),

		IncrementalReroutes: c.incReroutes.Load(),
		EdgesRipped:         c.edgesRipped.Load(),
		EdgesRetained:       c.edgesKept.Load(),
		ReduceEdgesSkipped:  c.reduceSkip.Load(),

		CheckpointsWritten:   c.ckptWritten.Load(),
		JobsRecovered:        c.jobsRecov.Load(),
		JournalReplayRecords: c.jrnlReplayed.Load(),
		JournalAppendErrors:  c.jrnlErrors.Load(),
	}
	for i := range c.congestion {
		s.Congestion[i] = c.congestion[i].Load()
	}
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
	fmt.Fprintf(&b, "  candidate evals    %d (Steiner points admitted %d)\n", s.CandidateEvals, s.SteinerPoints)
	if s.LazyHits+s.FullRescans+s.EvalsSaved != 0 {
		fmt.Fprintf(&b, "  lazy scan          hits %d, full rescans %d, evaluations saved %d\n",
			s.LazyHits, s.FullRescans, s.EvalsSaved)
	}
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
