// Package pathfinder is the net-parallel negotiated-congestion router: all
// nets of a circuit are routed concurrently against a frozen routing graph
// under soft congestion prices (PathFinder history costs maintained as
// Lagrange multipliers), instead of one at a time on a mutating fabric.
//
// Each iteration (a) routes every contested net independently — workers
// share nothing but the read-only CSR graph and an immutable price array,
// each searching under its own graph.Overlay — (b) reduces per-resource
// usage over all trees in fixed net order, and (c) raises history prices by
// sub-gradient steps on overcapacity resources. Iteration stops at zero
// overflow (every capacity-one wire and jog is used by at most one net, so
// the trees commit as electrically disjoint routes) or at the iteration
// budget, whichever comes first.
//
// Per-edge effective weight during iteration k is
//
//	base + hist[res(e)] + presFac_k·usage[res(e)] − ownShare + jitter
//
// where hist accumulates histStep·(usage−1) on every overflowed resource
// (monotone non-decreasing — the Lagrangian multiplier), the present-
// sharing term prices last iteration's usage with a geometrically growing
// presFac, ownShare removes the net's own contribution so an uncontested
// net keeps its tree, and jitter is a deterministic per-(net, edge)
// tie-break of relative size jitterEps that stops symmetric nets from
// ping-ponging between equal-cost alternatives in lockstep.
//
// Rip-up is always partial: a contested net keeps the fragment of its
// previous tree that touches no overflowed resource and reconnects only
// its orphaned pins, while reduce and reprice run as deltas over the
// changed state (see incremental.go).
//
// Determinism contract: a net's route is a pure function of the frozen
// graph, the iteration's shared prices, the net's own previous tree, and
// the net's identity — never of goroutine scheduling. Workers copy the
// shared prices into a private overlay once per iteration and restore the
// entries they perturb after every net; the reduce walks nets in index
// order using integer usage counts. Results are therefore bit-identical
// across every Workers setting (asserted under -race by the pathfinder
// parity suite).
package pathfinder

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/core"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// Algorithm names accepted by Config.Algorithm. The pathfinder routes each
// net with a Steiner construction that reads every edge weight through the
// worker's overlay; only the cache-mediated constructions qualify.
const (
	AlgKMB  = "kmb"
	AlgIKMB = "ikmb"
)

// maxWorkers caps the default net-routing fan-out.
const maxWorkers = 8

// Negotiation constants. The defaults 0.4/1/2/16 are the fastest of the
// stable pricing settings sweeps found (DESIGN.md §7); no caller tunes them.
const (
	// histStep is the sub-gradient step: every iteration adds
	// histStep·(usage−1) to each overflowed resource's history price.
	// Steps of 1 and more diverge: large permanent price steps poison
	// whole regions.
	histStep = 0.4
	// presFirst is the first priced iteration's present-sharing factor;
	// presMult grows it geometrically per iteration.
	presFirst = 1.0
	presMult  = 2.0
	// presMax caps the present factor: unbounded growth would eventually
	// dwarf the base geometry and the jitter (which scales with the present
	// factor) would randomize late-iteration routes. Once the cap is
	// reached the monotone history prices carry the pressure.
	presMax = 16.0
	// seqBelow is the Gauss-Seidel cutover: once the contested set is at
	// most seqBelow nets, iterations route it sequentially in net-index
	// order against LIVE usage pricing instead of fanning out against
	// frozen prices. Frozen-price (Jacobi) iterations resolve small
	// standoffs slowly — two nets sharing one wire each gain only
	// histStep of pressure per iteration — while the sequential pass
	// settles them immediately: the first net keeps the resource at its
	// now-unshared price, the second sees the full present penalty and
	// detours. The cutover depends only on the contested count, so
	// results stay worker-count invariant.
	seqBelow = 8
	// seqAfter bounds the frozen-price (Jacobi) phase: past this iteration
	// every contested set is routed sequentially, whatever its size. Jacobi
	// fan-out collapses congestion fast while the contested set is large,
	// but on the hardest instances it plateaus — rival nets keep swapping
	// between the same wires under prices that only move between
	// iterations — and the live-priced Gauss-Seidel pass is what actually
	// finishes the negotiation. The trigger depends only on the iteration
	// number, so results stay worker-count invariant.
	seqAfter = 48
	// jitterEps scales the deterministic per-(net, edge) tie-break noise,
	// relative to the current present factor.
	jitterEps = 1e-3
	// jitterSeed seeds the jitter hash. The stream is fixed, so results
	// are bit-identical run to run.
	jitterSeed uint64 = 0
)

// Config parameterizes a pathfinder run. The zero value is completed by
// defaults: IKMB, GOMAXPROCS workers (capped at 8), 96 iterations.
type Config struct {
	// Algorithm selects the per-net construction (AlgIKMB default, AlgKMB).
	Algorithm string
	// Workers bounds the net-routing goroutines. It also sizes IKMB's
	// fan-out inside a net (core.Options.Workers) when a pass routes one
	// net at a time — the Gauss-Seidel passes and the polish pass — so
	// those passes use the same CPUs. 0 selects the default (GOMAXPROCS
	// capped at 8); values below 1 force sequential routing. Results are
	// bit-identical at every setting.
	Workers int
	// MaxIters is the iteration budget before giving up (default 96).
	MaxIters int
	// BBoxMargin widens each net's Steiner-candidate bounding box.
	BBoxMargin int
	// MaxPool caps each net's candidate pool (0 = unlimited).
	MaxPool int
	// SingleStep forces one-candidate-per-round admission in IKMB.
	SingleStep bool
	// Incremental has no effect: partial rip-up is the engine's only mode.
	// The field remains so existing callers keep compiling.
	//
	// Deprecated: leave unset.
	Incremental bool
	// Stats receives iteration and per-net counters when non-nil.
	Stats *stats.Collector
	// Cancel, when non-nil, is polled at iteration boundaries; a non-nil
	// return aborts the run with that error and a partial Result.
	Cancel func() error
	// CheckpointFn, when non-nil, receives a serializable snapshot of the
	// run at iteration boundaries chosen by CheckpointEvery and
	// CheckpointPeriod. Emission never perturbs the run: results with and
	// without checkpointing are bit-identical. The callback runs on the
	// engine's goroutine; it should not block for long.
	CheckpointFn func(*Checkpoint)
	// CheckpointEvery emits a checkpoint every Nth iteration, counted in
	// absolute iteration numbers so a resumed run keeps the original
	// cadence (0 disables the iteration trigger).
	CheckpointEvery int
	// CheckpointPeriod emits a checkpoint when this much wall-clock time
	// passed since the last one, evaluated at iteration boundaries
	// (0 disables the time trigger).
	CheckpointPeriod time.Duration
	// Resume restarts a run from a prior Checkpoint instead of iteration 1.
	// The circuit, fabric and Algorithm must match the checkpointed run
	// (guarded fields are validated; an incompatible checkpoint fails the
	// run with an error wrapping ErrBadCheckpoint). The resumed run's
	// Result is bit-identical to the uninterrupted run's.
	Resume *Checkpoint
	// hooks lets in-package tests observe the engine after each reprice and
	// reduce — the delta-vs-full bookkeeping parity suite. Always nil in
	// production.
	hooks *debugHooks
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgIKMB
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > maxWorkers {
			c.Workers = maxWorkers
		}
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 96
	}
	return c
}

// IterStat records one iteration's outcome for convergence analysis (and
// the monotonicity tests: HistSum never decreases across a run).
type IterStat struct {
	Rerouted     int     // nets routed this iteration
	Overflow     int     // resources over capacity after the reduce
	PriceUpdates int     // history prices raised by the sub-gradient step
	HistSum      float64 // total history price after the update
}

// Result is the outcome of a pathfinder run. Trees is indexed by net;
// with Converged the trees are mutually resource-disjoint and commit
// cleanly. Without it, FailedNets lists the nets still touching an
// overcapacity resource — the remaining nets are provably disjoint (a
// resource used by two nets is overflowed, putting both nets in the failed
// set), so a partial commit of the rest is always valid.
type Result struct {
	Trees      []graph.Tree
	Iterations int
	Converged  bool
	Overflow   int   // overflowed resources after the final iteration
	FailedNets []int // net indices without a committable tree
	NetRoutes  int64 // total per-net route executions across iterations
	History    []IterStat
	// Rip-up accounting (summed over iterations ≥ 2, where a previous tree
	// exists): EdgesRipped counts previous-tree edges discarded before
	// rerouting, EdgesRetained the edges kept by partial rip-up, and
	// IncrementalReroutes the nets that reconnected from a retained
	// fragment instead of rebuilding.
	EdgesRipped         int64
	EdgesRetained       int64
	IncrementalReroutes int64
}

// engine holds one run's precomputed fabric facts and shared iteration
// state. Shared slices are read-only while workers run; workers write only
// trees (disjoint indices) and their own private state.
type engine struct {
	cfg  Config
	fab  *fpga.Fabric
	g    *graph.Graph
	nets []circuits.Net

	// Capacity-one resources: wires 0..numWires-1 (a wire's segments and
	// taps live and die together, exactly as CommitNet claims them), then
	// one resource per switch-block jog edge (CommitNet disables used jogs
	// individually). edgeRes maps every edge to its resource; resource r's
	// edges are resEdgeIx[resOff[r]:resOff[r+1]], a prefix-summed flat
	// index built once at setup (ascending edge IDs within each resource).
	numWires  int
	edgeRes   []int32
	resOff    []int32
	resEdgeIx []graph.EdgeID

	// blockedTmpl has every logic-block pin node blocked: pins are not
	// routing switches, so a route may only enter the pins of its own net.
	// Workers load it once and unblock/re-block terminals per net — the
	// overlay equivalent of the sequential router's BeginNet.
	blockedTmpl []uint64

	hist        []float64 // per-resource history price (Lagrange multipliers)
	usage       []int32   // per-resource usage from the latest reduce
	sharedPrice []float64 // per-edge price frozen for the current iteration
	priced      []graph.EdgeID
	trees       []graph.Tree

	resEp []uint32 // reduce-side per-resource epoch marks
	ep    uint32

	// workers persists the routing goroutines' private state (scratch,
	// overlay, reconnect buffers) across iterations; releaseWorkers returns
	// everything to the pools once per run instead of once per iteration.
	workers []*worker

	// Delta bookkeeping behind repriceDelta and reduceDelta (the
	// invariants are documented in incremental.go).
	resActive   []bool         // resource → has ever been used by a tree
	activeRes   []int32        // activation-ordered list of active resources
	activeEdges []graph.EdgeID // ascending edge IDs of active resources
	newActive   []graph.EdgeID // edges activated since the last reprice
	mergeBuf    []graph.EdgeID // spare buffer for the sorted merge
	touchedMark []bool         // resource → in touched since last reprice
	touched     []int32        // resources with changed usage or history
	prevSnap    []graph.Tree   // rerouted nets' old trees, one iteration
	lastPres    float64        // present factor of the last reprice
	havePres    bool

	// iterRipped/iterRetain/iterIncRe accumulate the current iteration's
	// rip-up accounting (summed from workers after the barrier, so
	// worker-count invariant).
	iterRipped int64
	iterRetain int64
	iterIncRe  int64

	// lastCkpt anchors Config.CheckpointPeriod's wall-clock trigger.
	lastCkpt time.Time
}

// Route routes every net of nets on fab's routing graph. The fabric must be
// in its reset state (nothing claimed, base weights); Route never mutates
// it — the caller commits the returned trees. On abort (cancellation, an
// injected fault, a disconnected net) the error is returned alongside the
// partial Result; non-convergence within the budget returns Converged
// false with a nil error, leaving the unroutable-at-this-width decision to
// the caller.
func Route(fab *fpga.Fabric, nets []circuits.Net, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Algorithm != AlgKMB && cfg.Algorithm != AlgIKMB {
		return nil, fmt.Errorf("pathfinder: algorithm %q is not overlay-capable (want %q or %q)", cfg.Algorithm, AlgIKMB, AlgKMB)
	}
	g := fab.Graph()
	e := &engine{
		cfg:  cfg,
		fab:  fab,
		g:    g,
		nets: nets,
	}
	e.numWires = fab.NumWires()
	e.edgeRes = make([]int32, g.NumEdges())
	numJogs := 0
	for id := 0; id < g.NumEdges(); id++ {
		if w := fab.WireOfEdge(graph.EdgeID(id)); w >= 0 {
			e.edgeRes[id] = int32(w)
		} else {
			e.edgeRes[id] = int32(e.numWires + numJogs)
			numJogs++
		}
	}
	numRes := e.numWires + numJogs
	// Prefix-summed resource→edge index: count, scan, scatter in edge-ID
	// order, so each resource's edge list comes out ascending.
	e.resOff = make([]int32, numRes+1)
	for _, r := range e.edgeRes {
		e.resOff[r+1]++
	}
	for r := 0; r < numRes; r++ {
		e.resOff[r+1] += e.resOff[r]
	}
	e.resEdgeIx = make([]graph.EdgeID, len(e.edgeRes))
	cur := make([]int32, numRes)
	copy(cur, e.resOff[:numRes])
	for id, r := range e.edgeRes {
		e.resEdgeIx[cur[r]] = graph.EdgeID(id)
		cur[r]++
	}
	e.blockedTmpl = make([]uint64, (g.NumNodes()+63)/64)
	lo, hi := fab.PinNodeRange()
	for v := lo; v < hi; v++ {
		e.blockedTmpl[v>>6] |= 1 << (uint(v) & 63)
	}
	e.hist = make([]float64, numRes)
	e.usage = make([]int32, numRes)
	e.sharedPrice = make([]float64, g.NumEdges())
	e.trees = make([]graph.Tree, len(nets))
	e.resEp = make([]uint32, numRes)
	e.resActive = make([]bool, numRes)
	e.touchedMark = make([]bool, numRes)
	return e.run()
}

// resEdges returns every edge of resource r (a wire's segment and tap
// edges, or the single jog edge) from the flat prefix-summed index.
func (e *engine) resEdges(r int32) []graph.EdgeID {
	return e.resEdgeIx[e.resOff[r]:e.resOff[r+1]]
}

// run is the iteration loop: price → parallel route → reduce → update.
func (e *engine) run() (*Result, error) {
	defer e.releaseWorkers()
	res := &Result{Trees: e.trees}
	reroute := make([]int32, 0, len(e.nets))
	// Every run ends with one polish pass: reconnected trees are
	// accretions of patches that can lock in detours, so on first reaching
	// zero overflow every net is rebuilt in full, sequentially under live
	// prices (the Gauss-Seidel machinery), and the loop re-confirms zero
	// overflow before declaring convergence. One extra pass buys back the
	// wirelength the patches gave up.
	polished, forceSeq := false, false
	startIter := 1
	if ck := e.cfg.Resume; ck != nil {
		if err := e.restore(ck, res); err != nil {
			return res, err
		}
		startIter = ck.Iteration + 1
		reroute = append(reroute, ck.Reroute...)
		polished, forceSeq = ck.Polished, ck.ForceSeq
	} else {
		for i := range e.nets {
			reroute = append(reroute, int32(i))
		}
	}
	e.lastCkpt = time.Now()
	for iter := startIter; iter <= e.cfg.MaxIters; iter++ {
		if e.cfg.Cancel != nil {
			if err := e.cfg.Cancel(); err != nil {
				e.fail(res, reroute)
				return res, err
			}
		}
		res.Iterations = iter
		// presFac for this iteration's present-sharing term. Iteration 1
		// routes at zero prices — every net gets its unconstrained shortest
		// Steiner tree, the Lagrangian's initial point.
		presFac := 0.0
		if iter >= 2 {
			presFac = presFirst
			for k := 2; k < iter && presFac < presMax; k++ {
				presFac *= presMult
			}
			if presFac > presMax {
				presFac = presMax
			}
		}
		e.repriceDelta(presFac)
		if h := e.cfg.hooks; h != nil && h.afterReprice != nil {
			h.afterReprice(e, iter, presFac)
		}
		var err error
		seq := forceSeq || iter >= 2 && (len(reroute) <= seqBelow || iter > seqAfter)
		forceSeq = false
		if seq {
			err = e.routeSeq(reroute, presFac)
		} else {
			// Snapshot the rerouted nets' current trees (slice headers
			// only — routing always builds fresh edge slices) so the delta
			// reduce can subtract them after workers overwrite.
			e.prevSnap = e.prevSnap[:0]
			for _, i32 := range reroute {
				e.prevSnap = append(e.prevSnap, e.trees[i32])
			}
			err = e.routeAll(reroute, iter, presFac)
		}
		if err != nil {
			e.fail(res, reroute)
			return res, err
		}
		overflow, priceUpdates, histSum := e.reduceDelta(reroute, seq)
		if h := e.cfg.hooks; h != nil && h.afterReduce != nil {
			h.afterReduce(e, iter)
		}
		e.cfg.Stats.Record(func(s *stats.Snapshot) {
			s.PathfinderIters++
			s.OverflowEdges += int64(overflow)
			s.PriceUpdates += int64(priceUpdates)
			s.IncrementalReroutes += e.iterIncRe
			s.EdgesRipped += e.iterRipped
			s.EdgesRetained += e.iterRetain
		})
		res.EdgesRipped += e.iterRipped
		res.EdgesRetained += e.iterRetain
		res.IncrementalReroutes += e.iterIncRe
		e.iterRipped, e.iterRetain, e.iterIncRe = 0, 0, 0
		res.History = append(res.History, IterStat{
			Rerouted:     len(reroute),
			Overflow:     overflow,
			PriceUpdates: priceUpdates,
			HistSum:      histSum,
		})
		res.NetRoutes += int64(len(reroute))
		if overflow == 0 {
			if polished || iter >= e.cfg.MaxIters {
				res.Converged = true
				return res, nil
			}
			polished, forceSeq = true, true
			reroute = reroute[:0]
			for i := range e.nets {
				reroute = append(reroute, int32(i))
			}
		} else {
			// Selective rip-up: only nets touching an overflowed resource
			// renegotiate; everyone else keeps their tree (and keeps pricing
			// it through the usage term).
			reroute = e.contested(reroute[:0])
		}
		// Checkpoint at the boundary, after the next iteration's rip-up set
		// and polish flags are decided — the snapshot then fully determines
		// the continuation.
		e.maybeCheckpoint(iter, res, reroute, polished, forceSeq)
	}
	res.Overflow = e.overflowCount()
	e.fail(res, e.contested(nil))
	return res, nil
}

// netError is a per-net routing failure; workers keep the lowest net index
// so the surfaced error is scheduling-independent.
type netError struct {
	idx int
	err error
}

// acquireWorkers grows the engine's persistent worker pool to n and returns
// the first n workers. Scratches and overlays are created once per run and
// reused by every iteration; callers refresh overlay prices and blocks
// before fanning out.
func (e *engine) acquireWorkers(n int) []*worker {
	for len(e.workers) < n {
		s := graph.AcquireScratch()
		e.workers = append(e.workers, &worker{
			scratch: s,
			ov:      graph.NewOverlay(e.g),
			resEp:   make([]uint32, len(e.resEp)),
			runs0:   s.Runs,
			pushes0: s.HeapPushes,
		})
	}
	return e.workers[:n]
}

// releaseWorkers returns every pooled scratch at the end of the run (via
// run's defer, so abort and panic paths are covered too), discarding those
// whose goroutine panicked mid-route, and records the run's total SSSP
// work.
func (e *engine) releaseWorkers() {
	var runs, pushes int64
	for _, wk := range e.workers {
		if wk.poisoned {
			graph.DiscardScratch(wk.scratch)
			continue
		}
		runs += wk.scratch.Runs - wk.runs0
		pushes += wk.scratch.HeapPushes - wk.pushes0
		graph.ReleaseScratch(wk.scratch)
	}
	e.workers = e.workers[:0]
	e.cfg.Stats.Record(func(s *stats.Snapshot) {
		s.SSSPRuns += runs
		s.HeapPushes += pushes
	})
}

// worker is one net-routing goroutine's private state, reused across
// iterations (the engine keeps workers alive for the whole run).
type worker struct {
	scratch *graph.DijkstraScratch
	ov      *graph.Overlay
	terms   []graph.NodeID
	stop    []graph.NodeID
	resEp   []uint32
	ep      uint32
	// Reconnect buffers: kept/out hold the surviving and rebuilt edge
	// sets, seeds/orphans the search frontier, parent the union-find over
	// dense fragment slots, seen the epoch-stamped fragment-membership
	// marks.
	kept    []graph.EdgeID
	out     []graph.EdgeID
	seeds   []graph.Seed
	orphans []graph.NodeID
	parent  []int32
	seen    []uint32
	seenEp  uint32
	// Per-iteration rip-up accounting, drained into the engine after the
	// iteration barrier (integer sums over the net list — order-free).
	ripped      int64
	retained    int64
	increroutes int64
	// baseline scratch counters for the run-end SSSP accounting.
	runs0, pushes0 int64
	poisoned       bool
	fail           *netError
	panicked       *faultpoint.GoroutinePanic
}

// routeAll routes every net of list concurrently over the engine's worker
// pool. Work is distributed by an atomic cursor — which worker routes which
// net is scheduling-dependent, but irrelevant: every worker would produce
// the identical tree. Panics are funneled to this goroutine and re-raised
// (lowest worker slot first); injected errors abort with the lowest failed
// net index.
func (e *engine) routeAll(list []int32, iter int, presFac float64) error {
	nw := e.cfg.Workers
	if nw > len(list) {
		nw = len(list)
	}
	if nw < 1 {
		nw = 1
	}
	workers := e.acquireWorkers(nw)
	for _, wk := range workers {
		copy(wk.ov.Prices(), e.sharedPrice)
		wk.ov.LoadBlocked(e.blockedTmpl)
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					wk.panicked = &faultpoint.GoroutinePanic{Value: p, Stack: debug.Stack()}
					wk.poisoned = true
				}
			}()
			for {
				i := cursor.Add(1) - 1
				if int(i) >= len(list) {
					return
				}
				idx := int(list[i])
				if err := faultpoint.Hit(faultpoint.PathfinderWorker); err != nil {
					wk.record(idx, err)
					continue
				}
				start := time.Now()
				tree, err := e.routeNet(wk, idx, iter, presFac)
				e.cfg.Stats.ObserveNet(time.Since(start), err == nil)
				if err != nil {
					wk.record(idx, err)
					continue
				}
				e.trees[idx] = tree
			}
		}(workers[k])
	}
	wg.Wait()
	for _, wk := range workers {
		if wk.panicked != nil {
			panic(wk.panicked)
		}
	}
	for _, wk := range workers {
		e.iterRipped += wk.ripped
		e.iterRetain += wk.retained
		e.iterIncRe += wk.increroutes
		wk.ripped, wk.retained, wk.increroutes = 0, 0, 0
	}
	var worst *netError
	for _, wk := range workers {
		if wk.fail != nil && (worst == nil || wk.fail.idx < worst.idx) {
			worst = wk.fail
		}
	}
	if worst != nil {
		return fmt.Errorf("pathfinder: net %d: %w", worst.idx, worst.err)
	}
	return nil
}

// routeSeq is the Gauss-Seidel pass (seqBelow / seqAfter):
// the contested nets route one at a time in net-index order, each seeing
// the nets before it already moved. Rip-up removes the net's own share from live
// usage (so no own-share discount is needed) and commit re-prices the new
// tree's resources for the nets after it — exactly the sequential
// PathFinder semantics the frozen-price iterations approximate. Jitter is
// omitted: sequential updates cannot livelock on symmetric ties. Runs on
// the caller's goroutine, each net's construction fanning out over
// Config.Workers goroutines inside the net; a first error aborts at the
// lowest net index by construction.
func (e *engine) routeSeq(list []int32, presFac float64) error {
	wk := e.acquireWorkers(1)[0]
	copy(wk.ov.Prices(), e.sharedPrice)
	wk.ov.LoadBlocked(e.blockedTmpl)
	defer func() {
		if p := recover(); p != nil {
			// Poison the scratch; run's releaseWorkers discards it.
			wk.poisoned = true
			panic(p)
		}
	}()
	pr := wk.ov.Prices()
	// adjust moves one tree in or out of live usage and re-prices every
	// edge of the touched resources. It also feeds the delta bookkeeping:
	// usage is live here, so the reduce skips its delta pass and only these
	// marks tell the next reprice what moved.
	adjust := func(tree graph.Tree, delta int32) {
		wk.ep++
		for _, id := range tree.Edges {
			r := e.edgeRes[id]
			if wk.resEp[r] == wk.ep {
				continue
			}
			wk.resEp[r] = wk.ep
			e.usage[r] += delta
			e.touchRes(r)
			if delta > 0 {
				e.activateRes(r)
			}
			p := e.hist[r] + presFac*float64(e.usage[r])
			for _, re := range e.resEdges(r) {
				pr[re] = p
			}
		}
	}
	for _, i32 := range list {
		idx := int(i32)
		if err := faultpoint.Hit(faultpoint.PathfinderWorker); err != nil {
			return fmt.Errorf("pathfinder: net %d: %w", idx, err)
		}
		e.iterRipped += int64(len(e.trees[idx].Edges))
		adjust(e.trees[idx], -1)
		net := e.nets[idx]
		terms := wk.terms[:0]
		for _, p := range net.Pins {
			terms = append(terms, e.fab.PinNode(p))
		}
		wk.terms = terms
		for _, v := range terms {
			wk.ov.Unblock(v)
		}
		start := time.Now()
		tree, err := e.construct(wk, terms, net.Pins, e.cfg.Workers)
		e.cfg.Stats.ObserveNet(time.Since(start), err == nil)
		for _, v := range terms {
			wk.ov.Block(v)
		}
		if err != nil {
			return fmt.Errorf("pathfinder: net %d: %w", idx, err)
		}
		e.trees[idx] = tree
		adjust(tree, +1)
	}
	return nil
}

func (wk *worker) record(idx int, err error) {
	if wk.fail == nil || idx < wk.fail.idx {
		wk.fail = &netError{idx: idx, err: err}
	}
}

// routeNet routes one net against the worker's overlay. The overlay enters
// and leaves in the shared iteration state (prices = sharedPrice, all pins
// blocked); in between it carries the net's private view — terminals
// unblocked, the net's own present share discounted so its current tree is
// not priced against itself, and jitter on every priced edge.
func (e *engine) routeNet(wk *worker, idx, iter int, presFac float64) (graph.Tree, error) {
	net := e.nets[idx]
	terms := wk.terms[:0]
	for _, p := range net.Pins {
		terms = append(terms, e.fab.PinNode(p))
	}
	wk.terms = terms
	for _, v := range terms {
		wk.ov.Unblock(v)
	}
	pr := wk.ov.Prices()
	if iter >= 2 {
		// Own-share discount: sharedPrice includes presFac·usage where
		// usage counts this net's previous tree once per resource; remove
		// exactly that share on every edge of those resources. Every such
		// resource has usage ≥ 1, so its edges are in the priced list and
		// the post-net restore below covers the discount too.
		if prev := e.trees[idx]; len(prev.Edges) != 0 {
			wk.ep++
			for _, id := range prev.Edges {
				r := e.edgeRes[id]
				if wk.resEp[r] == wk.ep {
					continue
				}
				wk.resEp[r] = wk.ep
				for _, re := range e.resEdges(r) {
					pr[re] -= presFac
				}
			}
		}
		// Deterministic tie-break jitter, scaled to the present factor so
		// it never outweighs a real price difference. It depends on the
		// net's identity, not on scheduling, so symmetric nets stop
		// mirroring each other's moves while results stay worker-count
		// invariant.
		eps := jitterEps * presFac
		for _, id := range e.priced {
			pr[id] += eps * hash01(jitterSeed, int32(idx), int32(id))
		}
	}
	// Iteration 1 has no previous tree, so reconnect declines and the
	// rebuild rips nothing.
	tree, done := e.reconnect(wk, idx, terms)
	var err error
	if !done {
		// No fragment worth keeping: the full rebuild rips the whole
		// previous tree.
		wk.ripped += int64(len(e.trees[idx].Edges))
		tree, err = e.construct(wk, terms, net.Pins, 1)
	}
	for _, id := range e.priced {
		pr[id] = e.sharedPrice[id]
	}
	for _, v := range terms {
		wk.ov.Block(v)
	}
	return tree, err
}

// construct runs the per-net tree construction under the worker's overlay.
// Goal-directed search is unconditional here: the pathfinder has no
// bit-for-bit tie to the paper's Dijkstra reference (that binds only the
// sequential oracle), and the fabric's coordinate bound stays admissible
// under any non-negative pricing state.
//
// workers is IKMB's fan-out inside the net (core.Options.Workers): the
// concurrent iterations pass 1, because their nets already occupy the
// worker budget, while the one-net-at-a-time passes pass Config.Workers
// so the construction's terminal trees and candidate scans use the CPUs
// the net level leaves idle. Trees are bit-identical either way.
func (e *engine) construct(wk *worker, terms []graph.NodeID, pins []fpga.Pin, workers int) (graph.Tree, error) {
	if len(terms) == 2 && terms[0] != terms[1] {
		_, path, ok := e.g.BiDijkstraOverlay(wk.scratch, terms[0], terms[1], wk.ov)
		if !ok {
			return graph.Tree{}, steiner.ErrNoRoute
		}
		return graph.NewTree(e.g, path), nil
	}
	var pool []graph.NodeID
	stop := append(wk.stop[:0], terms...)
	if e.cfg.Algorithm == AlgIKMB {
		pool = e.fab.SteinerPool(pins, e.cfg.BBoxMargin, e.cfg.MaxPool)
		stop = append(stop, pool...)
	}
	wk.stop = stop
	cache := graph.NewSPTCacheWithin(e.g, stop).
		WithScratch(wk.scratch).
		WithBounds(e.fab.Bounds()).
		WithOverlay(wk.ov)
	defer cache.Release()
	if e.cfg.Algorithm == AlgKMB {
		return steiner.KMB(cache, terms)
	}
	tree, st, err := core.IKMBStats(cache, terms, core.Options{
		Candidates: pool,
		Batched:    !e.cfg.SingleStep,
		Workers:    workers,
	})
	e.cfg.Stats.Record(st.AddTo)
	return tree, err
}

// contested appends (in ascending net order) every net whose tree touches
// an overcapacity resource — the rip-up set for the next iteration.
func (e *engine) contested(into []int32) []int32 {
	for idx := range e.trees {
		for _, id := range e.trees[idx].Edges {
			if e.usage[e.edgeRes[id]] > 1 {
				into = append(into, int32(idx))
				break
			}
		}
	}
	return into
}

func (e *engine) overflowCount() int {
	n := 0
	for _, u := range e.usage {
		if u > 1 {
			n++
		}
	}
	return n
}

// fail marks res partial: the failed set is the given contested list (for
// aborts mid-iteration, the nets that were up for rerouting). Their trees
// are dropped from the result so the remaining trees are exactly the
// mutually disjoint, committable ones.
func (e *engine) fail(res *Result, contested []int32) {
	for _, idx := range contested {
		res.FailedNets = append(res.FailedNets, int(idx))
		e.trees[idx] = graph.Tree{}
	}
}

// hash01 maps (seed, net, edge) to a deterministic float in [0, 1) via
// SplitMix64 — the jitter stream, independent of any global randomness.
func hash01(seed uint64, net, edge int32) float64 {
	x := seed ^ uint64(uint32(net))<<32 ^ uint64(uint32(edge))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
