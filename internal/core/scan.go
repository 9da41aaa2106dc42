package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// maxScanWorkers caps the default candidate-scan fan-out; beyond eight
// workers the per-round sharding overhead outweighs the shrinking shards on
// the pool sizes the router produces (≤ 1024 candidates).
const maxScanWorkers = 8

// scanWorkers resolves Options.Workers: 0 means GOMAXPROCS capped at
// maxScanWorkers, anything below 1 means the sequential reference scan.
func scanWorkers(opts Options) int {
	w := opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > maxScanWorkers {
			w = maxScanWorkers
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanEval is one candidate's outcome in a scan round. Rounds produce evals
// in pool order regardless of how the scan was sharded, so every reduction
// over them reproduces the sequential scan's tie-breaking exactly. A
// screened candidate has no sol: the screen proved it cannot improve the
// round's incumbent, so every fold skips it, as it skips errors.
type scanEval struct {
	t        graph.NodeID
	sol      graph.Tree
	err      error
	screened bool
}

// scanner evaluates the base heuristic over a round's candidate pool,
// either inline on the shared cache (workers == 1, the regression oracle)
// or sharded over worker goroutines. Each worker owns a Fork of the cache —
// a read-only view of every established tree plus a private scratch for the
// epoch sets and any candidate-rooted Dijkstra runs — so concurrent
// evaluations share no mutable state. The same workers warm the net's
// terminal trees before the first round (warm). Forks persist across
// rounds to keep their scratch warm; close returns them to the
// process-wide pool.
type scanner struct {
	cache *graph.SPTCache
	H     steiner.Heuristic
	// round, when non-nil, evaluates KMB with its certified screen
	// (steiner.KMBScreened), and scan calls it instead of H. scan resets
	// it once per round, on the calling goroutine, before any evaluation;
	// the workers then only read it.
	round   *steiner.KMBRound
	workers int
	forks   []*graph.SPTCache // per-worker cache views (nil when sequential)
	bufs    [][]graph.NodeID  // per-worker terminal buffers
	termBuf []graph.NodeID    // terminal buffer for inline evaluations
	targets []graph.NodeID    // current round's candidates, in pool order
	evals   []scanEval        // reused result buffer
	// workerRuns/workerPushes stage each worker's Dijkstra counter deltas
	// for one fan-out so fanOut can fold them into Stats without racing.
	workerRuns   []int64
	workerPushes []int64
	// panics[k] captures a panic recovered on worker k so fanOut can
	// re-raise it on the calling goroutine after the barrier. poisoned[k]
	// marks that worker's fork scratch as mid-run-interrupted; close
	// discards it instead of pooling.
	panics   []*faultpoint.GoroutinePanic
	poisoned []bool
}

func newScanner(cache *graph.SPTCache, H steiner.Heuristic, screened bool, opts Options) *scanner {
	s := &scanner{cache: cache, H: H, workers: scanWorkers(opts)}
	if screened {
		s.round = steiner.AcquireKMBRound()
	}
	if s.workers > 1 {
		s.forks = make([]*graph.SPTCache, s.workers)
		s.bufs = make([][]graph.NodeID, s.workers)
		s.workerRuns = make([]int64, s.workers)
		s.workerPushes = make([]int64, s.workers)
		s.panics = make([]*faultpoint.GoroutinePanic, s.workers)
		s.poisoned = make([]bool, s.workers)
		for i := range s.forks {
			s.forks[i] = cache.Fork(graph.AcquireScratch())
		}
	}
	return s
}

// close releases every worker fork: private trees recycle into the fork's
// scratch, which then returns to the pool. A fork whose worker panicked
// mid-evaluation is discarded whole — its scratch may hold a half-built
// run, and a dropped scratch is cheaper than a poisoned pool. The round
// returns to its pool too: workers only ever read it.
func (s *scanner) close() {
	if s.round != nil {
		steiner.ReleaseKMBRound(s.round)
		s.round = nil
	}
	for i, f := range s.forks {
		scr := f.Scratch()
		if s.poisoned != nil && s.poisoned[i] {
			graph.DiscardScratch(scr)
			continue
		}
		f.Release()
		graph.ReleaseScratch(scr)
	}
	s.forks = nil
}

// withTerm writes spanned followed by t into *buf (grown as needed) and
// returns the slice. Every evaluation gets a terminal list that never
// aliases spanned's backing array: the previous append(spanned, t) idiom
// reused that array across evaluations once capacity allowed, which is a
// data race under the parallel scan and a retention footgun even inline.
func withTerm(buf *[]graph.NodeID, spanned []graph.NodeID, t graph.NodeID) []graph.NodeID {
	n := len(spanned) + 1
	if cap(*buf) < n {
		*buf = make([]graph.NodeID, 0, n+8)
	}
	terms := append((*buf)[:0], spanned...)
	terms = append(terms, t)
	*buf = terms
	return terms
}

// scan evaluates H(G, spanned ∪ {t}) for every pool candidate t not in inNS,
// inline on the shared cache or sharded over the worker forks, returning
// outcomes in pool order and accounting the work into st. With a screen, a
// candidate whose cost provably cannot beat best — the cost of the
// solution the round's candidates must improve on — by more than gainEps
// comes back screened instead of with a tree; the screened evaluations go
// through the round context, built here once from spanned. The returned
// slice is reused by the next round.
func (s *scanner) scan(st *Stats, spanned []graph.NodeID, inNS map[graph.NodeID]bool, pool []graph.NodeID, best float64) []scanEval {
	if s.round != nil {
		s.round.Reset(s.cache, spanned)
	}
	s.targets = s.targets[:0]
	for _, t := range pool {
		if !inNS[t] {
			s.targets = append(s.targets, t)
		}
	}
	n := len(s.targets)
	st.Evaluations += int64(n)
	if cap(s.evals) < n {
		s.evals = make([]scanEval, n)
	}
	evals := s.evals[:n]
	if s.workers == 1 || n < 2 {
		for i, t := range s.targets {
			evals[i] = s.eval(s.cache, withTerm(&s.termBuf, spanned, t), t, best)
		}
		st.countScreened(evals)
		return evals
	}
	w := min(s.workers, n)
	per := (n + w - 1) / w
	w = (n + per - 1) / per // no worker without a shard
	cpu := make([]time.Duration, w)
	start := time.Now()
	s.fanOut(st, w, func(k int) {
		t0 := time.Now()
		fork := s.forks[k]
		for i := k * per; i < min((k+1)*per, n); i++ {
			faultpoint.Check(faultpoint.ScanWorker)
			t := s.targets[i]
			evals[i] = s.eval(fork, withTerm(&s.bufs[k], spanned, t), t, best)
		}
		cpu[k] = time.Since(t0)
	})
	st.ParallelScans++
	st.ScanWall += time.Since(start)
	for _, d := range cpu {
		st.ScanCPU += d
	}
	st.countScreened(evals)
	return evals
}

// eval evaluates candidate t, whose terminal list is terms, on cache:
// through the round's screen against best when there is one, through H
// otherwise.
func (s *scanner) eval(cache *graph.SPTCache, terms []graph.NodeID, t graph.NodeID, best float64) scanEval {
	if s.round == nil {
		sol, err := s.H(cache, terms)
		return scanEval{t: t, sol: sol, err: err}
	}
	sol, screened, err := s.round.KMBScreened(cache, terms, best, gainEps)
	return scanEval{t, sol, err, screened}
}

// countScreened adds the screened evaluations to st.Screened.
func (st *Stats) countScreened(evals []scanEval) {
	for _, ev := range evals {
		if ev.screened {
			st.Screened++
		}
	}
}

// warm computes the shortest-path tree of every net terminal the cache
// lacks before the first base-heuristic call, concurrently on the worker
// forks' scratches (graph.SPTCache.Warm), and accounts the searches into
// st's worker counters. Sequential scanners leave the trees to the base
// heuristic, as before. The warmed trees are the ones the template computes
// anyway, only earlier: the force-cache loop after the first H call roots
// a tree at every terminal. DESIGN.md §5 shows why the distances KMB, SPH
// and ZEL read keep every bit, and why IDOMStats does not warm.
func (s *scanner) warm(st *Stats, net []graph.NodeID) {
	if s.workers == 1 {
		return
	}
	s.cache.Warm(net, func(n int, fill func(int, *graph.DijkstraScratch)) {
		var next atomic.Int64
		s.fanOut(st, min(s.workers, n), func(k int) {
			scr := s.forks[k].Scratch()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fill(i, scr)
			}
		})
	})
}

// fanOut runs body(k) for every k in [0, w) on its own goroutine, worker
// k owning fork k, and returns once all of them have. A panic on worker k
// is recovered with the worker's stack and marks fork k poisoned; after
// the barrier the lowest-indexed one is re-raised on the calling goroutine
// (a raw panic on a worker goroutine would kill the whole process,
// bypassing the service's per-job isolation), and iterate's deferred
// close discards the poisoned forks during the unwind. Otherwise each
// worker's Dijkstra work on its fork scratch is added to st, which the
// caller's own scratch counters cannot see.
func (s *scanner) fanOut(st *Stats, w int, body func(k int)) {
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		s.panics[k] = nil
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					// Capture the stack here, while the panicking frames are
					// still on this goroutine.
					s.panics[k] = &faultpoint.GoroutinePanic{Value: p, Stack: debug.Stack()}
					s.poisoned[k] = true
				}
			}()
			scr := s.forks[k].Scratch()
			runs0, pushes0 := scr.Runs, scr.HeapPushes
			body(k)
			s.workerRuns[k] = scr.Runs - runs0
			s.workerPushes[k] = scr.HeapPushes - pushes0
		}(k)
	}
	wg.Wait()
	for k := 0; k < w; k++ {
		if s.panics[k] != nil {
			panic(s.panics[k])
		}
	}
	for k := 0; k < w; k++ {
		st.WorkerSSSPRuns += s.workerRuns[k]
		st.WorkerHeapPushes += s.workerPushes[k]
	}
}
