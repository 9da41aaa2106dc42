package graph

import (
	"slices"

	"fpgarouter/internal/faultpoint"
)

// SPT is a single-source shortest-paths tree produced by Dijkstra.
//
// Dist[v] is the cost of a shortest path from Source to v (inf if v is
// unreachable through enabled edges). ParentEdge[v] is the edge used to
// reach v on one such shortest path (None for the source and unreachable
// nodes); ParentNode[v] is the corresponding predecessor.
type SPT struct {
	Source     NodeID
	Dist       []float64
	ParentEdge []EdgeID
	ParentNode []NodeID

	// settled lists the nodes the last search settled, in order; tidy
	// reports that the search finished, leaving labels only at those nodes
	// (see reset and finish).
	settled []NodeID
	tidy    bool
}

// pqItem is an entry in the Dijkstra priority queue. The queue is a plain
// binary heap with lazy deletion: stale entries are skipped on pop.
type pqItem struct {
	dist float64
	node NodeID
}

type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	h := *q
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].dist < h[small].dist {
			small = l
		}
		if r < len(h) && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}

// Dijkstra computes shortest paths from src over the enabled edges of g.
// Ties are broken deterministically by edge insertion order, so repeated
// runs on the same graph yield identical trees.
func (g *Graph) Dijkstra(src NodeID) *SPT {
	s := AcquireScratch()
	defer ReleaseScratch(s)
	return g.dijkstraWith(s, src, nil)
}

// DijkstraWithin computes shortest paths from src but stops as soon as
// every node of stop has been settled; nodes not settled by then are
// reported unreachable (Dist = Inf). Distances and paths for stop nodes are
// exact — the search is not constrained to any region, it merely terminates
// early — so this is a pure optimization for callers that only query a
// known node subset (the router's per-net caches).
func (g *Graph) DijkstraWithin(src NodeID, stop []NodeID) *SPT {
	s := AcquireScratch()
	defer ReleaseScratch(s)
	return g.dijkstraWith(s, src, stop)
}

// DijkstraWithinScratch is DijkstraWithin on a caller-provided scratch (nil
// falls back to the pool): the warm-path entry for callers that manage
// their own scratch lifetime, and the timed loop of the SSSP_CSR
// microbenchmark (LegacyDijkstra is its baseline pair).
func (g *Graph) DijkstraWithinScratch(s *DijkstraScratch, src NodeID, stop []NodeID) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	return g.dijkstraWith(s, src, stop)
}

// dijkstraWith is the single Dijkstra implementation: all working state
// (heap, settled marks, stop-set marks) lives in the scratch and the
// returned SPT comes off its free list, so a warm scratch runs without
// allocating. A nil stop slice settles the whole graph.
//
// The relaxation loop streams the CSR arc and weight arrays. Disabled edges
// carry +inf in the weight stream, so `du + arcw[i] < Dist[to]` rejects
// them with no flag lookup; per-node arc order equals edge-insertion order
// (see rebuildCSR), which keeps distances, parents and the heap-push/settle
// counters bit-identical to the pre-CSR adjacency-list implementation
// (LegacyDijkstra, retained as the parity oracle).
func (g *Graph) dijkstraWith(s *DijkstraScratch, src NodeID, stop []NodeID) *SPT {
	return g.dijkstraInto(s, s.takeSPT(), src, stop)
}

// dijkstraInto is dijkstraWith writing into t, whose buffers it resizes
// and reinitializes; the searches below take their tree the same way, so
// a cache can run them on another goroutine's scratch (SPTCache.Warm).
func (g *Graph) dijkstraInto(s *DijkstraScratch, t *SPT, src NodeID, stop []NodeID) *SPT {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	t.reset(n, src)
	remaining := -1 // < 0: no early termination
	if stop != nil {
		remaining = 0
		for _, v := range stop {
			if s.stop[v] != ep {
				s.stop[v] = ep
				remaining++
			}
		}
		if s.stop[src] != ep {
			s.stop[src] = ep
			remaining++
		}
	}
	t.Dist[src] = 0
	s.heap = s.heap[:0]
	q := &s.heap
	q.push(pqItem{0, src})
	s.HeapPushes++
	for len(*q) > 0 {
		it := q.pop()
		u := it.node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		t.settled = append(t.settled, u)
		if remaining >= 0 && s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				// Every requested node is settled; invalidate tentative
				// state of unsettled nodes so they read as unreachable
				// rather than carrying half-relaxed distances.
				return t.finish(*q, s.done, ep)
			}
		}
		du := t.Dist[u]
		// No settled check per arc: a settled node's distance is final and
		// weights are non-negative, so nd = du + w ≥ du ≥ Dist[to] and the
		// improvement test rejects it anyway — same pushes, same counters,
		// one fewer random load per arc. Nor is a pin tail with no enabled
		// arc scanned (see SetPinBoundary): every arc in it carries +Inf.
		// Sub-slicing arcs/weights to the scanned range lets the compiler
		// drop the per-arc bounds checks.
		lo, hi := g.offsets[u], g.scanEnd(u)
		as := g.arcs[lo:hi]
		ws := g.arcw[lo:hi]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				q.push(pqItem{nd, to})
				s.HeapPushes++
			}
		}
	}
	return t.finish(nil, s.done, ep)
}

// PathTo returns the edge IDs of the tree path from the source to v, in
// source-to-v order, or nil if v is unreachable. For v == Source it returns
// an empty (non-nil) slice.
func (t *SPT) PathTo(v NodeID) []EdgeID {
	if t.Dist[v] == inf {
		return nil
	}
	path := t.appendPath([]EdgeID{}, v)
	slices.Reverse(path)
	return path
}

// appendPath appends the tree path's edges to dst in v-to-source order.
func (t *SPT) appendPath(dst []EdgeID, v NodeID) []EdgeID {
	for ; t.ParentEdge[v] != None; v = t.ParentNode[v] {
		dst = append(dst, t.ParentEdge[v])
	}
	return dst
}

// Reachable reports whether v is reachable from the source.
func (t *SPT) Reachable(v NodeID) bool { return t.Dist[v] != inf }

// SPTCache memoizes Dijkstra trees by source node. The iterated
// constructions (IGMST, IDOM) evaluate their base heuristic for many
// candidate Steiner nodes on the same graph; the cache ensures each distinct
// source is expanded exactly once per graph state.
//
// The cache MUST be invalidated (discarded) whenever edge weights or enable
// flags change; it performs no change detection by design — algorithms in
// this repository route a net against a frozen graph state, then mutate.
//
// Every cache is backed by a DijkstraScratch: either one attached by the
// caller (WithScratch — the router threads one per-goroutine scratch
// through all nets of a pass) or a private one created lazily. Release
// recycles all cached trees into the scratch so the next net's cache reuses
// their buffers.
//
// A cache alone is not safe for concurrent use. For parallel candidate
// evaluation, Fork splits it into a read-only snapshot (the base cache,
// frozen for the forks' lifetime) plus per-worker private state; see Fork.
type SPTCache struct {
	g       *Graph
	trees   map[NodeID]*SPT
	stop    []NodeID // optional early-termination set (nil = settle all)
	scratch *DijkstraScratch
	// base, when non-nil, is the frozen snapshot this cache was forked from:
	// lookups fall through to its trees, writes stay private (see Fork).
	base *SPTCache
	// bounds, when non-nil alongside a stop set, turns cache misses into
	// goal-directed searches (DijkstraWithinBounded): expansion is biased
	// toward the stop set by an admissible lower bound. Distances to stop
	// nodes stay exact; see WithBounds for the tie-break caveat.
	bounds *CoordBounds
	// overlay, when non-nil, prices and blocks the cache's searches without
	// mutating g (see Overlay); EdgeWeight reads through it so that tree
	// constructions sorting by weight see the same effective costs the
	// searches did. The overlay must stay quiescent while the cache is live.
	overlay *Overlay
	// Runs counts actual Dijkstra executions, exposed for ablation benches.
	Runs int
}

// NewSPTCache returns an empty cache over g.
func NewSPTCache(g *Graph) *SPTCache {
	return &SPTCache{g: g, trees: make(map[NodeID]*SPT)}
}

// NewSPTCacheWithin returns a cache whose trees are computed with
// DijkstraWithin(src, stop): exact for every node of stop, unreachable
// beyond. Callers must only query distances/paths to nodes of stop (the
// router queries a net's pins plus its Steiner-candidate pool).
func NewSPTCacheWithin(g *Graph, stop []NodeID) *SPTCache {
	return &SPTCache{g: g, trees: make(map[NodeID]*SPT), stop: stop}
}

// WithScratch backs the cache with an externally owned scratch (the routing
// context's), replacing the lazily created private one. Returns c.
func (c *SPTCache) WithScratch(s *DijkstraScratch) *SPTCache {
	c.scratch = s
	return c
}

// WithBounds guides the cache's searches with an admissible lower bound
// (see CoordBounds): each miss runs DijkstraWithinBounded toward the stop
// set instead of plain DijkstraWithin, settling fewer nodes. Requires a
// stop set (caches without one settle the whole graph, where goal
// direction cannot help); b must be admissible and consistent for the
// current graph state or distances would come out wrong.
//
// Exactness contract: distances to stop nodes are exact and, with a
// consistent bound, bit-identical to the unbounded cache's; parents (and
// therefore Path results) may differ on exact floating-point ties because
// the bound reorders settlement among equal-cost nodes. The pathfinder
// bounds every cache; the sequential router bounds none, because its
// routes must keep plain Dijkstra's tie-breaks. Returns c.
func (c *SPTCache) WithBounds(b *CoordBounds) *SPTCache {
	c.bounds = b
	return c
}

// WithOverlay runs the cache's searches under an overlay: every miss sees
// per-edge effective weight base + price and never relaxes into blocked
// nodes. Like bounds, the overlay is part of the cached-state contract —
// changing its prices or blocks invalidates every cached tree, so callers
// must Release (or discard) the cache first. Returns c.
func (c *SPTCache) WithOverlay(ov *Overlay) *SPTCache {
	c.overlay = ov
	return c
}

// Fork returns a per-worker view of the cache for concurrent candidate
// evaluation. Lookups (Tree, Dist, Path, CachedTree) fall through to every
// tree already cached in c — the shared read-only snapshot — while misses
// are computed with s, the worker's own scratch, into the fork's private
// map. Forks of the same base therefore never write shared state: any
// number of them may run concurrently, one goroutine each, as long as the
// base is quiescent (no Tree/Dist/Path/Release calls on it) while they are
// live. Release the fork — recycling its private trees into s — before
// returning s to the pool; the base's trees are never recycled by a fork.
func (c *SPTCache) Fork(s *DijkstraScratch) *SPTCache {
	return &SPTCache{g: c.g, trees: make(map[NodeID]*SPT), stop: c.stop, scratch: s, base: c, bounds: c.bounds, overlay: c.overlay}
}

// lookup returns the cached tree rooted at v, consulting the fork's private
// map first and then the frozen base snapshot.
func (c *SPTCache) lookup(v NodeID) (*SPT, bool) {
	if t, ok := c.trees[v]; ok {
		return t, true
	}
	if c.base != nil {
		return c.base.lookup(v)
	}
	return nil, false
}

// Scratch returns the cache's scratch, creating a private one on first use.
func (c *SPTCache) Scratch() *DijkstraScratch {
	if c.scratch == nil {
		c.scratch = NewDijkstraScratch()
	}
	return c.scratch
}

// Release recycles every cached tree's buffers into the scratch and empties
// the cache. The caller must drop all references to trees (and Dist slices)
// obtained from the cache before releasing; the router releases each net's
// cache after the net's tree (plain edge IDs) has been committed.
func (c *SPTCache) Release() {
	if c.scratch != nil {
		for _, t := range c.trees {
			c.scratch.RecycleSPT(t)
		}
	}
	clear(c.trees)
}

// EdgeSet returns the scratch's edge set, emptied and sized for the graph.
// At most one EdgeSet per cache is live at a time (see graph.EdgeSet).
func (c *SPTCache) EdgeSet() EdgeSet { return c.Scratch().EdgeSet(c.g.NumEdges()) }

// NodeSet returns the scratch's node set, emptied and sized for the graph.
// At most one NodeSet per cache is live at a time (see graph.NodeSet).
func (c *SPTCache) NodeSet() NodeSet { return c.Scratch().NodeSet(c.g.NumNodes()) }

// Tree returns the shortest-paths tree rooted at src, computing it on first
// use (into the fork's private map when the cache is a fork).
func (c *SPTCache) Tree(src NodeID) *SPT {
	if t, ok := c.lookup(src); ok {
		return t
	}
	s := c.Scratch()
	t := c.search(s, s.takeSPT(), src)
	c.trees[src] = t
	c.Runs++
	return t
}

// search runs the cache's configured search from src on scratch s, into t.
func (c *SPTCache) search(s *DijkstraScratch, t *SPT, src NodeID) *SPT {
	switch {
	case c.overlay != nil && c.bounds != nil && c.stop != nil:
		return c.g.goalDirectedOverlay(s, t, src, c.stop, c.overlay, c.bounds.ToSet(c.stop))
	case c.overlay != nil:
		return c.g.dijkstraOverlayWith(s, t, src, c.stop, c.overlay)
	case c.bounds != nil && c.stop != nil:
		return c.g.goalDirected(s, t, src, c.stop, c.bounds.ToSet(c.stop))
	default:
		return c.g.dijkstraInto(s, t, src, c.stop)
	}
}

// Warm caches the tree rooted at every node of srcs that the cache lacks,
// computed by the same search Tree would run, but leaves to the caller the
// goroutines the searches run on. It takes each missing tree's buffers
// from the cache's own scratch and freezes the graph's CSR view, then
// calls run(n, fill) on the calling goroutine. run must call fill(i, s)
// exactly once for every i in [0, n) and return only after every call has
// returned. Calls for distinct i may run concurrently, each with a scratch
// no other goroutine is using: fill reads only the graph, stop set, bounds
// and overlay, which stay frozen while the cache is live, and writes only
// tree i and s. When run returns, Warm caches the n trees (counting them
// in Runs), so Release recycles their buffers into the cache's scratch,
// never into the scratches the searches ran on. If run panics, nothing is
// cached. Sources outside the graph are skipped, left for the caller's
// own validation to report (steiner.CheckNet) rather than panicking on a
// worker goroutine.
//
// A tree is a pure function of the graph state, stop set, bounds, overlay
// and source; the scratch only supplies working memory. Warm therefore
// caches exactly the trees that Tree calls would.
func (c *SPTCache) Warm(srcs []NodeID, run func(n int, fill func(i int, s *DijkstraScratch))) {
	todo := make([]*SPT, 0, len(srcs))
	for _, v := range srcs {
		if v < 0 || int(v) >= c.g.n {
			continue
		}
		if _, ok := c.lookup(v); ok || slices.ContainsFunc(todo, func(t *SPT) bool { return t.Source == v }) {
			continue
		}
		t := c.Scratch().takeSPT()
		t.Source = v
		todo = append(todo, t)
	}
	if len(todo) == 0 {
		return
	}
	c.g.ensureCSR()
	run(len(todo), func(i int, s *DijkstraScratch) {
		c.search(s, todo[i], todo[i].Source)
	})
	for _, t := range todo {
		c.trees[t.Source] = t
	}
	c.Runs += len(todo)
}

// Dist returns the shortest-path distance between u and v, computing (and
// caching) a tree rooted at u if needed. Distances are symmetric on
// undirected graphs, so Dist prefers whichever of the two endpoints is
// already cached.
func (c *SPTCache) Dist(u, v NodeID) float64 {
	if t, ok := c.lookup(u); ok {
		return t.Dist[v]
	}
	if t, ok := c.lookup(v); ok {
		return t.Dist[u]
	}
	return c.Tree(u).Dist[v]
}

// CachedTree returns the tree rooted at v if it has already been computed
// (in this cache or, for forks, in the base snapshot).
func (c *SPTCache) CachedTree(v NodeID) (*SPT, bool) {
	return c.lookup(v)
}

// Path returns the edge IDs of one shortest path between u and v (nil if
// disconnected), preferring whichever endpoint already has a cached tree so
// that candidate-node evaluations never trigger fresh Dijkstra runs. The
// path's orientation (u→v vs v→u) is unspecified; callers union undirected
// edges.
func (c *SPTCache) Path(u, v NodeID) []EdgeID {
	t, x := c.pathTree(u, v)
	return t.PathTo(x)
}

// AppendPath appends the edge IDs of the shortest path Path(u, v) would
// return to dst and returns the extended slice (dst unchanged if u and v
// are disconnected). It reads the same tree as Path, so the edges are the
// same; their order is unspecified. This is the allocation-free form for
// callers that union undirected edges into a reused buffer (KMB's path
// expansion).
func (c *SPTCache) AppendPath(dst []EdgeID, u, v NodeID) []EdgeID {
	t, x := c.pathTree(u, v)
	if !t.Reachable(x) {
		return dst
	}
	return t.appendPath(dst, x)
}

// pathTree picks the tree Path and AppendPath read, and the node to walk
// back from: u's tree if cached, else v's, else a fresh tree rooted at u.
func (c *SPTCache) pathTree(u, v NodeID) (*SPT, NodeID) {
	if t, ok := c.lookup(u); ok {
		return t, v
	}
	if t, ok := c.lookup(v); ok {
		return t, u
	}
	return c.Tree(u), v
}

// EdgeWeight returns edge id's effective weight as seen by the cache's
// searches: the base weight plus the overlay price when an overlay is
// attached, the plain base weight otherwise. Tree constructions that order
// edges by weight (localMST) must use this so their ordering agrees with
// the distances the searches produced.
func (c *SPTCache) EdgeWeight(id EdgeID) float64 {
	if c.overlay != nil {
		return c.g.Weight(id) + c.overlay.price[id]
	}
	return c.g.Weight(id)
}

// Overlay returns the overlay attached with WithOverlay, or nil.
func (c *SPTCache) Overlay() *Overlay { return c.overlay }

// Graph returns the underlying graph.
func (c *SPTCache) Graph() *Graph { return c.g }
