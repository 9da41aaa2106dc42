// Package router implements the paper's FPGA detailed router (Section 5):
// nets are routed one at a time directly on the fabric's routing graph with
// a chosen tree construction (IKMB for non-critical nets, PFA or IDOM for
// critical ones); after each net the used wires are removed from the graph
// (electrical disjointness) and congestion weights are refreshed; when a
// pass fails to route every net, the failed nets move to the front of the
// ordering and the whole circuit is ripped up and re-routed, up to a
// feasibility threshold of passes (20 in the paper). The smallest channel
// width at which a circuit completes is the router's quality metric
// (Tables 2–4).
package router

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fpgarouter/internal/arbor"
	"fpgarouter/internal/circuits"
	"fpgarouter/internal/core"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// Algorithm names accepted by Options.Algorithm.
const (
	AlgKMB  = "kmb"  // Kou–Markowsky–Berman Steiner trees
	AlgZEL  = "zel"  // Zelikovsky Steiner trees (bbox-restricted triples)
	AlgSPH  = "sph"  // Takahashi–Matsuyama shortest-paths heuristic
	AlgIKMB = "ikmb" // iterated KMB (the paper's router default)
	AlgIZEL = "izel" // iterated ZEL
	AlgISPH = "isph" // iterated SPH
	AlgDJKA = "djka" // pruned Dijkstra shortest-paths trees
	AlgDOM  = "dom"  // dominance spanning arborescences
	AlgPFA  = "pfa"  // path-folding arborescences
	AlgIDOM = "idom" // iterated dominance arborescences
)

// ErrUnroutable reports that the circuit could not be completely routed at
// the requested channel width within the pass limit.
var ErrUnroutable = errors.New("router: circuit unroutable at this channel width")

// Zero is the sentinel for explicitly requesting a zero value in Options
// fields where the plain 0 literal selects the default: pass
// CongestionAlpha: router.Zero to disable congestion weighting, or
// BBoxMargin: router.Zero for a margin-less candidate bounding box. Any
// negative value works the same way.
const Zero = -1

// Options configures a routing run. The zero value is completed by
// defaults: IKMB, 20 passes, bounding-box margin 2, congestion α = 1.
// The JSON tags define the service wire format (cmd/routed job submissions).
type Options struct {
	// Algorithm selects the per-net tree construction (Alg* constants).
	Algorithm string `json:"algorithm,omitempty"`
	// MaxPasses is the feasibility threshold: how many rip-up/re-route
	// passes to attempt before declaring the width unroutable (paper: 20).
	MaxPasses int `json:"max_passes,omitempty"`
	// BBoxMargin widens the Steiner-candidate bounding box around each
	// net's pins, in switch-block units. 0 selects the default (2); use
	// Zero (or any negative value) for an explicit zero margin.
	BBoxMargin int `json:"bbox_margin,omitempty"`
	// CongestionAlpha scales fabric congestion weighting. 0 selects the
	// default (1.0); use Zero (or any negative value) to explicitly
	// disable congestion weighting.
	CongestionAlpha float64 `json:"congestion_alpha,omitempty"`
	// WidthProbes has no effect: MinWidthCtx routes one width at a time (the
	// concurrent width probes it selected were removed). The field remains
	// so journaled requests and clients that send width_probes still decode
	// under strict parsing.
	//
	// Deprecated: leave unset.
	WidthProbes int `json:"width_probes,omitempty"`
	// CandidateWorkers bounds the fan-out of the iterated constructions'
	// candidate-evaluation scans (core.Options.Workers): each net's
	// Steiner-candidate pool is sharded over this many goroutines, every
	// worker evaluating against its own fork of the net's frozen
	// shortest-paths snapshot. 0 selects the default (GOMAXPROCS capped at
	// 8); 1 (or any negative value) forces the sequential reference scan.
	// Routing results are bit-identical at every setting (see the parity
	// tests).
	CandidateWorkers int `json:"candidate_workers,omitempty"`
	// Parallel selects the net-parallel negotiated-congestion router
	// (internal/pathfinder) instead of the paper's sequential rip-up/
	// re-route loop: every net routes concurrently against frozen
	// congestion prices that a per-iteration reduce updates via
	// sub-gradient steps, until zero overflow or MaxPasses iterations.
	// Results are deterministic for a fixed run and invariant across
	// NetWorkers settings; goal-directed search is always on in this mode
	// (the bit-for-bit Dijkstra tie binds only the sequential oracle).
	// Requires Algorithm ikmb or kmb and no CriticalNets (CheckAlgorithms).
	Parallel bool `json:"parallel,omitempty"`
	// NetWorkers bounds the pathfinder's net-routing goroutines (only
	// meaningful with Parallel). 0 selects the default (GOMAXPROCS capped
	// at 8); 1 (or any negative value) routes nets one at a time. Routing
	// results are bit-identical at every setting.
	NetWorkers int `json:"net_workers,omitempty"`
	// IncrementalReroute has no effect: the parallel router always rips up
	// incrementally (a contested net keeps the fragment of its previous
	// tree that touches no overflowed resource and reconnects only its
	// orphaned pins). The field remains so journaled requests and clients
	// that send incremental_reroute still decode under strict parsing.
	//
	// Deprecated: leave unset.
	IncrementalReroute bool `json:"incremental_reroute,omitempty"`
	// LazyScan has no effect: the lazy-greedy candidate scan it selected
	// was removed, and every construction scans its whole candidate pool.
	// The field remains so journaled requests and clients that send
	// lazy_scan still decode under strict parsing.
	//
	// Deprecated: leave unset.
	LazyScan bool `json:"lazy_scan,omitempty"`
	// GoalDirected has no effect: the sequential router always searches
	// with plain Dijkstra, whose equal-cost tie-breaks the paper tables
	// and the golden routes pin. (The parallel router's searches are
	// always goal-directed.) The field remains so journaled requests and
	// clients that send goal_directed still decode under strict parsing.
	//
	// Deprecated: leave unset.
	GoalDirected bool `json:"goal_directed,omitempty"`
	// NoMoveToFront disables the move-to-front reordering of failed nets
	// (for the ordering ablation benchmark).
	NoMoveToFront bool `json:"no_move_to_front,omitempty"`
	// SingleStep forces one-candidate-per-round Steiner-point admission
	// inside the iterated constructions (Figure 5 as written). By default
	// the router admits in batches (core.Options.Batched) for speed.
	SingleStep bool `json:"single_step,omitempty"`
	// SegLens overrides the architecture's per-track wire segment lengths
	// (nil keeps the circuit's default, single-length channels). See
	// fpga.Arch.SegLens.
	SegLens []int `json:"seg_lens,omitempty"`
	// CriticalNets lists net IDs classified as timing-critical by the
	// upstream design stages (Section 2: "nets may be classified as either
	// critical or non-critical based on timing information"). Critical
	// nets are routed first, each with CriticalAlgorithm, so their
	// source-sink paths are shortest on the freshest possible fabric; the
	// rest use Algorithm.
	CriticalNets []int `json:"critical_nets,omitempty"`
	// CriticalAlgorithm routes the critical nets (default AlgIDOM).
	CriticalAlgorithm string `json:"critical_algorithm,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = AlgIKMB
	}
	if o.MaxPasses == 0 {
		// The parallel mode's iterations are much cheaper than full rip-up
		// passes (only contested nets reroute), so its budget is larger.
		if o.Parallel {
			o.MaxPasses = 96
		} else {
			o.MaxPasses = 20
		}
	}
	// Sentinel-aware defaults: the zero value still selects the documented
	// default, while negative values (router.Zero) mean an explicit zero —
	// without this, a caller could never disable congestion weighting or
	// the bbox margin.
	switch {
	case o.BBoxMargin == 0:
		o.BBoxMargin = 2
	case o.BBoxMargin < 0:
		o.BBoxMargin = 0
	}
	switch {
	case o.CongestionAlpha == 0:
		o.CongestionAlpha = 1.0
	case o.CongestionAlpha < 0:
		o.CongestionAlpha = 0
	}
	if o.CriticalAlgorithm == "" {
		o.CriticalAlgorithm = AlgIDOM
	}
	return o
}

// criticalSet returns a sorted copy of CriticalNets for binary-search
// membership tests via isCritical (no per-call map).
func (o Options) criticalSet() []int {
	if len(o.CriticalNets) == 0 {
		return nil
	}
	s := append([]int(nil), o.CriticalNets...)
	sort.Ints(s)
	return s
}

// isCritical reports membership of net ID id in the sorted set crit.
func isCritical(crit []int, id int) bool {
	i := sort.SearchInts(crit, id)
	return i < len(crit) && crit[i] == id
}

// NetResult records the routed tree and metrics for one net. The JSON tags
// define the service wire format (cmd/routed result retrieval).
type NetResult struct {
	Tree       graph.Tree `json:"tree"`
	Wirelength float64    `json:"wirelength"` // base (uncongested) wirelength
	MaxPath    float64    `json:"max_path"`   // max source-sink pathlength, base wirelength
}

// Result is the outcome of routing one circuit at one channel width. The
// JSON tags define the service wire format; a Result round-trips through
// encoding/json bit-identically (see the wire-format tests).
//
// A Result is either complete (Routed true, every net carries a tree) or
// partial (Partial true): the best rip-up/re-route attempt available when
// the run was interrupted by cancellation, a deadline, an injected fault,
// or the pass limit. Partial results are well-formed — Nets holds real
// trees for exactly the nets counted by RoutedNets, FailedNets lists the
// rest — but MaxUtil is not computed (the fabric had moved past the
// snapshotted pass). Success-path results are byte-identical to what this
// package returned before partial results existed: Partial and RoutedNets
// are only ever set on failure paths.
type Result struct {
	Routed     bool        `json:"routed"`
	Width      int         `json:"width"`
	Passes     int         `json:"passes"`       // passes consumed (including the successful one)
	Wirelength float64     `json:"wirelength"`   // total base wirelength over all nets
	MaxPathSum float64     `json:"max_path_sum"` // sum over nets of max source-sink pathlength
	MaxUtil    int         `json:"max_util"`     // maximum wires claimed in any channel span
	Nets       []NetResult `json:"nets"`
	FailedNets []int       `json:"failed_nets,omitempty"` // net IDs without a tree in this result
	// Partial marks a best-effort result returned alongside a non-nil error
	// (graceful degradation): the run did not complete, but the nets below
	// did route.
	Partial bool `json:"partial,omitempty"`
	// RoutedNets counts the nets carrying a tree in a partial result (the
	// success path leaves it 0 — every net routed, see Routed).
	RoutedNets int `json:"routed_nets,omitempty"`
}

// Route attempts to route every net of the circuit at channel width w.
// On success the result carries per-net trees and metrics; on failure it
// returns ErrUnroutable along with a partial Result — the best pass's
// routed trees and failure set (see Result.Partial).
func Route(ckt *circuits.Circuit, w int, opts Options) (*Result, error) {
	return RouteCtx(nil, ckt, w, opts)
}

// RouteCtx is Route with an explicit routing context (nil for an ephemeral
// one): the context's pooled scratch is reused by every SSSP call of the
// run and its collector, if any, receives the work counters.
//
// A cancellation bound to ctx (Context.Bind) is checked at pass and per-net
// boundaries; once it fires the run aborts with an error matching both
// ErrCanceled and the cause (context.Canceled or context.DeadlineExceeded)
// under errors.Is. An aborted run degrades gracefully: alongside the error
// it returns the best partial Result so far (nil only if nothing routed
// yet; see Result.Partial).
func RouteCtx(ctx *Context, ckt *circuits.Circuit, w int, opts Options) (*Result, error) {
	res, _, err := RouteWithFabricCtx(ctx, ckt, w, opts)
	return res, err
}

// RouteWithFabricCtx is RouteCtx but also returns the fabric in its final
// state (with the successful pass's nets committed), for rendering and
// utilization analysis.
func RouteWithFabricCtx(ctx *Context, ckt *circuits.Circuit, w int, opts Options) (*Result, *fpga.Fabric, error) {
	if err := opts.CheckAlgorithms(); err != nil {
		return nil, nil, err
	}
	ctx, done := ensureContext(ctx)
	defer done()
	opts = opts.withDefaults()
	arch := ckt.ArchAt(w)
	if opts.SegLens != nil {
		arch.SegLens = opts.SegLens
	}
	fab, err := fpga.NewFabric(arch)
	if err != nil {
		return nil, nil, err
	}
	fab.CongestionAlpha = opts.CongestionAlpha
	var res *Result
	if opts.Parallel {
		res, err = routeParallel(ctx, fab, ckt, opts)
	} else {
		res, err = routeOnFabric(ctx, fab, ckt, opts)
	}
	return res, fab, err
}

// snapshotPartial copies the current attempt into a self-contained partial
// Result: per-net trees for what did route, the failure list, and metrics
// aggregated over the routed nets only. The Nets slice is copied shallowly —
// trees are immutable once built, only the slice itself is overwritten by
// later passes.
func snapshotPartial(res *Result, routed int, failed []int) *Result {
	p := &Result{
		Width:      res.Width,
		Passes:     res.Passes,
		Partial:    true,
		RoutedNets: routed,
		Nets:       append([]NetResult(nil), res.Nets...),
		FailedNets: append([]int(nil), failed...),
	}
	// A mid-pass snapshot can list nets as failed whose res.Nets entry
	// still holds a tree committed by an earlier pass (the current pass
	// never reached them): zero those entries so the snapshot is
	// self-consistent before aggregating metrics over what remains.
	for _, idx := range p.FailedNets {
		if idx >= 0 && idx < len(p.Nets) {
			p.Nets[idx] = NetResult{}
		}
	}
	for _, nr := range p.Nets {
		p.Wirelength += nr.Wirelength
		p.MaxPathSum += nr.MaxPath
	}
	return p
}

func routeOnFabric(ctx *Context, fab *fpga.Fabric, ckt *circuits.Circuit, opts Options) (*Result, error) {
	crit := opts.criticalSet()
	order := initialOrder(ckt)
	if crit != nil {
		// Critical nets route first (they need the freshest fabric), in
		// their existing relative order.
		var front, rest []int
		for _, idx := range order {
			if isCritical(crit, ckt.Nets[idx].ID) {
				front = append(front, idx)
			} else {
				rest = append(rest, idx)
			}
		}
		order = append(front, rest...)
	}
	netOpts := func(idx int) Options {
		if crit != nil && isCritical(crit, ckt.Nets[idx].ID) {
			o := opts
			o.Algorithm = opts.CriticalAlgorithm
			return o
		}
		return opts
	}
	res := &Result{Width: fab.W, Nets: make([]NetResult, len(ckt.Nets))}
	st := ctx.Stats
	// best is the snapshot of the best attempt so far (most routed nets,
	// latest pass winning ties) — what the caller gets, marked Partial,
	// when the run ends without a fully routed pass. nil until at least one
	// net has routed.
	var best *Result
	bestRouted := -1
	// interrupted builds the partial result for an abandoned run: the
	// better of the best completed pass and the current mid-pass state
	// (routed nets so far; everything unattempted counts as failed).
	interrupted := func(routed int, failed, unattempted []int) *Result {
		if routed >= bestRouted && routed > 0 {
			all := append(append([]int(nil), failed...), unattempted...)
			return snapshotPartial(res, routed, all)
		}
		return best
	}
	for pass := 1; pass <= opts.MaxPasses; pass++ {
		if err := ctx.checkCanceled(); err != nil {
			return best, err
		}
		if err := faultpoint.Hit(faultpoint.PassBoundary); err != nil {
			return best, err
		}
		res.Passes = pass
		st.Record(func(s *stats.Snapshot) { s.Passes++ })
		fab.Reset()
		// Register pin demand for every net so traversal routes avoid
		// walling off pins of nets still waiting to be routed.
		for i := range ckt.Nets {
			for _, p := range ckt.Nets[i].Pins {
				fab.AddPinDemand(p, +1)
			}
		}
		var failed []int
		routed := 0
		ok := true
		for k, idx := range order {
			if err := ctx.checkCanceled(); err != nil {
				return interrupted(routed, failed, order[k:]), err
			}
			// This net is being routed now: release its reservations so
			// they do not repel its own route.
			for _, p := range ckt.Nets[idx].Pins {
				fab.AddPinDemand(p, -1)
			}
			var netStart time.Time
			var runs0, pushes0 int64
			if st.Enabled() {
				netStart = time.Now()
				runs0, pushes0 = ctx.scratch.Runs, ctx.scratch.HeapPushes
			}
			tree, err := routeNet(ctx, fab, ckt.Nets[idx], netOpts(idx))
			if st.Enabled() {
				st.Record(func(s *stats.Snapshot) {
					s.SSSPRuns += ctx.scratch.Runs - runs0
					s.HeapPushes += ctx.scratch.HeapPushes - pushes0
				})
				st.ObserveNet(time.Since(netStart), err == nil)
			}
			if err != nil {
				ok = false
				failed = append(failed, idx)
				res.Nets[idx] = NetResult{} // drop any tree from an earlier pass
				continue
			}
			fab.CommitNet(tree)
			src := fab.PinNode(ckt.Nets[idx].Pins[0])
			sinks := pinNodes(fab, ckt.Nets[idx].Pins[1:])
			res.Nets[idx] = NetResult{
				Tree:       tree,
				Wirelength: fab.BaseWirelength(tree),
				MaxPath:    fab.MaxPathlength(tree, src, sinks),
			}
			routed++
		}
		if ok {
			res.Routed = true
			res.MaxUtil = fab.MaxSpanUtilization()
			for _, nr := range res.Nets {
				res.Wirelength += nr.Wirelength
				res.MaxPathSum += nr.MaxPath
			}
			if st.Enabled() {
				st.RecordCongestion(fab.SpanUtilization(), fab.W)
			}
			return res, nil
		}
		res.FailedNets = failed
		st.Record(func(s *stats.Snapshot) { s.RipUps += int64(len(failed)) })
		if routed >= bestRouted {
			bestRouted = routed
			best = snapshotPartial(res, routed, failed)
		}
		if !opts.NoMoveToFront {
			order = moveToFront(order, failed)
		}
	}
	failedCount := 0
	if best != nil {
		failedCount = len(best.FailedNets)
	}
	return best, fmt.Errorf("%w (width %d, %d failed nets after %d passes)",
		ErrUnroutable, fab.W, failedCount, opts.MaxPasses)
}

// maxPool caps the Steiner-candidate pool per net; larger pools are
// deterministically stride-subsampled (quality changes marginally, runtime
// linearly).
const maxPool = 1024

// routeNet routes a single net on the current fabric state. BeginNet
// restricts connection-block taps to the net's own pins, so routes cannot
// pass through unrelated logic-block pins. Shortest-path caches terminate
// early once the net's pins and candidate pool are settled (distances stay
// exact; see graph.DijkstraWithin). The per-net cache is backed by the
// context's pooled scratch and released on return, so its SPT buffers are
// recycled for the next net instead of feeding the garbage collector.
func routeNet(ctx *Context, fab *fpga.Fabric, net circuits.Net, opts Options) (graph.Tree, error) {
	alg := algorithms[opts.Algorithm] // a known name: see CheckAlgorithms
	fab.BeginNet(net.Pins)
	terms := pinNodes(fab, net.Pins)
	var pool []graph.NodeID
	stop := terms
	if alg.needsPool(len(net.Pins)) {
		pool = fab.SteinerPool(net.Pins, opts.BBoxMargin, maxPool)
		stop = append(append(make([]graph.NodeID, 0, len(terms)+len(pool)), terms...), pool...)
	}
	cache := ctx.attach(graph.NewSPTCacheWithin(fab.Graph(), stop))
	defer cache.Release()
	tree, st, err := alg.build(cache, terms, pool, core.Options{Candidates: pool, Batched: !opts.SingleStep, Workers: opts.CandidateWorkers})
	ctx.Stats.Record(st.AddTo)
	return tree, err
}

// construction builds a net's tree from its per-net cache, its pin nodes
// and its Steiner-candidate pool (nil when the cache does not settle it),
// with the work counters of an iterated construction (zero otherwise).
type construction func(cache *graph.SPTCache, terms, pool []graph.NodeID, o core.Options) (graph.Tree, core.Stats, error)

// algorithms is the one list of names Options.Algorithm and
// CriticalAlgorithm accept, each with its construction and whether its
// searches settle the candidate pool for a net of n pins: CheckAlgorithms
// validates against it and routeNet dispatches through it.
// Terminal-only constructions settle just the net's pins; the rest also
// settle the pool, so candidate evaluations stay exact. IKMB scans no
// candidate for a net of at most two pins (core.IKMBStats), so its one
// search may stop at the other pin: a stop set only ends a search, and the
// path to the second pin settles before it, so the route is the same.
var algorithms = map[string]struct {
	needsPool func(n int) bool
	build     construction
}{
	AlgKMB:  {never, plain(steiner.KMB)},
	AlgDJKA: {never, plain(arbor.DJKA)},
	AlgDOM:  {never, plain(arbor.DOM)},
	AlgSPH:  {always, plain(steiner.SPH)},
	AlgPFA:  {always, plain(arbor.PFA)},
	AlgZEL: {always, func(cache *graph.SPTCache, terms, pool []graph.NodeID, _ core.Options) (graph.Tree, core.Stats, error) {
		tree, err := steiner.ZELRestricted(cache, terms, pool)
		return tree, core.Stats{}, err
	}},
	AlgIKMB: {func(n int) bool { return n > 2 }, func(cache *graph.SPTCache, terms, _ []graph.NodeID, o core.Options) (graph.Tree, core.Stats, error) {
		return core.IKMBStats(cache, terms, o)
	}},
	AlgISPH: {always, func(cache *graph.SPTCache, terms, _ []graph.NodeID, o core.Options) (graph.Tree, core.Stats, error) {
		return core.IGMSTStats(cache, terms, steiner.SPH, o)
	}},
	AlgIZEL: {always, func(cache *graph.SPTCache, terms, pool []graph.NodeID, o core.Options) (graph.Tree, core.Stats, error) {
		zel := func(c *graph.SPTCache, n []graph.NodeID) (graph.Tree, error) {
			return steiner.ZELRestricted(c, n, pool)
		}
		return core.IGMSTStats(cache, terms, zel, o)
	}},
	AlgIDOM: {always, func(cache *graph.SPTCache, terms, _ []graph.NodeID, o core.Options) (graph.Tree, core.Stats, error) {
		return core.IDOMStats(cache, terms, o)
	}},
}

func never(int) bool  { return false }
func always(int) bool { return true }

// plain adapts a construction that reads only the cache and the pins.
func plain(f func(*graph.SPTCache, []graph.NodeID) (graph.Tree, error)) construction {
	return func(cache *graph.SPTCache, terms, _ []graph.NodeID, _ core.Options) (graph.Tree, core.Stats, error) {
		tree, err := f(cache, terms)
		return tree, core.Stats{}, err
	}
}

// CheckAlgorithms reports an error unless o's Algorithm and
// CriticalAlgorithm (empty: the default) both name a known algorithm, and,
// in parallel mode, unless Algorithm is ikmb or kmb and no net is
// critical. Route and MinWidthCtx run it before any pass or width, and the
// service before it accepts a job, so a bad request fails at once instead
// of failing every net of every pass, or after the fabric is built.
func (o Options) CheckAlgorithms() error {
	o = o.withDefaults()
	for _, name := range []string{o.Algorithm, o.CriticalAlgorithm} {
		if _, ok := algorithms[name]; !ok {
			return fmt.Errorf("router: unknown algorithm %q", name)
		}
	}
	if !o.Parallel {
		return nil
	}
	if o.Algorithm != AlgIKMB && o.Algorithm != AlgKMB {
		return fmt.Errorf("router: parallel mode requires algorithm %q or %q (got %q)", AlgIKMB, AlgKMB, o.Algorithm)
	}
	if len(o.CriticalNets) > 0 {
		return fmt.Errorf("router: parallel mode does not support critical-net classification (%d critical nets requested)", len(o.CriticalNets))
	}
	return nil
}

func pinNodes(fab *fpga.Fabric, pins []fpga.Pin) []graph.NodeID {
	out := make([]graph.NodeID, len(pins))
	for i, p := range pins {
		out[i] = fab.PinNode(p)
	}
	return out
}

// initialOrder routes high-fanout nets first (they need the most shared
// resources), breaking ties by larger bounding box then net index, all
// deterministically.
func initialOrder(ckt *circuits.Circuit) []int {
	order := make([]int, len(ckt.Nets))
	for i := range order {
		order[i] = i
	}
	bbox := make([]int, len(ckt.Nets))
	for i, n := range ckt.Nets {
		minX, minY := 1<<30, 1<<30
		maxX, maxY := 0, 0
		for _, p := range n.Pins {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		bbox[i] = (maxX - minX + 1) * (maxY - minY + 1)
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := ckt.Nets[order[a]], ckt.Nets[order[b]]
		if len(na.Pins) != len(nb.Pins) {
			return len(na.Pins) > len(nb.Pins)
		}
		if bbox[order[a]] != bbox[order[b]] {
			return bbox[order[a]] > bbox[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// moveToFront hoists the failed net indices to the front of the order,
// preserving relative order within both groups (the paper's move-to-front
// reordering heuristic). Membership is an index slice over the net-index
// range — not a per-pass map.
func moveToFront(order []int, failed []int) []int {
	n := 0
	for _, idx := range order {
		if idx >= n {
			n = idx + 1
		}
	}
	inFailed := make([]bool, n)
	for _, f := range failed {
		if f >= 0 && f < n {
			inFailed[f] = true
		}
	}
	out := make([]int, 0, len(order))
	out = append(out, failed...)
	for _, idx := range order {
		if !inFailed[idx] {
			out = append(out, idx)
		}
	}
	return out
}
