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
	// paused reports a plain search stopped between two pops once its
	// pause set was settled (SPTCache.WarmPaused): heap holds its queue,
	// and the labels of the nodes it has reached but not settled are
	// tentative until resume continues it.
	paused bool
	heap   pq
	// radius is the key radius that cut the search short, or +Inf when
	// nothing did: the tree is exact at every node no farther than radius
	// from Source (see SPTCache.SetRadius).
	radius float64
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

// pop removes and returns the root. It is a bottom-up (Floyd) sift: the
// hole left at the root walks down to a leaf along the smaller child, the
// left one on ties, moving that child up at every level, and the former
// last entry x then climbs back from the leaf while its parent's key is
// ≥ x's. Keys never decrease along the hole's path, so x lands where a
// top-down sift stops (the first level whose smaller child is not
// strictly below x), the same entries move, and the array after every pop
// equals the swap-based sift's (heap_test.go keeps that one as the
// oracle). The gain is in the comparisons: one per level on the way down,
// between the two children, and the comparisons against x only on the
// short climb.
func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Unsigned indices and the two-child window spare most bounds checks.
	i := uint(0)
	for {
		l := 2*i + 1
		if l+1 >= uint(len(h)) {
			break
		}
		c := h[l : l+2 : l+2]
		if c[1].dist < c[0].dist {
			h[i] = c[1]
			i = l + 1
		} else {
			h[i] = c[0]
			i = l
		}
	}
	if l := 2*i + 1; l < uint(len(h)) { // a lone last child
		h[i] = h[l]
		i = l
	}
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist < x.dist {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
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
	return g.dijkstraInto(s, s.takeSPT(), src, stop, nil, inf)
}

// dijkstraInto is dijkstraWith writing into t, whose buffers it resizes
// and reinitializes; the searches below take their tree the same way, so
// a cache can run them on another goroutine's scratch (SPTCache.Warm).
// A non-nil pause set pauses the search as soon as every node of it in
// the graph is settled, and radius bounds it by key (see settle).
func (g *Graph) dijkstraInto(s *DijkstraScratch, t *SPT, src NodeID, stop, pause []NodeID, radius float64) *SPT {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	t.reset(n, src)
	remaining := s.markStop(stop, src, ep)
	pauseLeft := -1 // < 0: never pause
	if pause != nil {
		pauseLeft = 0
		for _, v := range pause {
			if v >= 0 && int(v) < n && s.pause[v] != ep {
				s.pause[v] = ep
				pauseLeft++
			}
		}
	}
	t.Dist[src] = 0
	s.heap = s.heap[:0]
	s.heap.push(pqItem{0, src})
	s.HeapPushes++
	return g.settle(s, t, ep, remaining, pauseLeft, radius)
}

// resume continues t's paused search on s, which need not be the scratch
// it started on: the queue and labels live in t, and resume re-stamps the
// settled and stop marks in a fresh epoch of s. It opens no new run (Runs
// stays), and from there on it is the same loop, so the pops, labels and
// HeapPushes are those the search would have made without the pause. The
// resumed search is no longer pausable; radius bounds it as in settle.
func (g *Graph) resume(s *DijkstraScratch, t *SPT, stop []NodeID, radius float64) *SPT {
	ep := s.openEpoch(g.n)
	remaining := s.markStop(stop, t.Source, ep)
	for _, v := range t.settled {
		s.done[v] = ep
		if remaining > 0 && s.stop[v] == ep {
			remaining--
		}
	}
	s.heap = append(s.heap[:0], t.heap...)
	t.heap = t.heap[:0]
	t.paused = false
	return g.settle(s, t, ep, remaining, -1, radius)
}

// settle is the one loop behind fresh and resumed plain searches: it pops
// s.heap until the stop set is settled (remaining reaches 0; < 0 means no
// stop set) or the heap empties. Two more rules end it early, between two
// pops and so without changing any pop before them:
//   - pause: once pauseLeft pause-set nodes have settled (< 0: never), the
//     queue moves into t and t is left paused, its unsettled labels intact;
//   - radius: once the smallest key left exceeds radius, the search
//     finishes as if the heap were empty, and t records radius. Keys pop
//     in non-decreasing order, so every later pop of the uninterrupted
//     search would have settled a node farther than radius.
//
// The relaxation loop streams the CSR arc and weight arrays (see
// dijkstraWith).
func (g *Graph) settle(s *DijkstraScratch, t *SPT, ep uint32, remaining, pauseLeft int, radius float64) *SPT {
	q := &s.heap
	for len(*q) > 0 {
		if pauseLeft == 0 {
			t.heap = append(t.heap[:0], *q...)
			t.paused = true
			return t
		}
		if (*q)[0].dist > radius {
			t.radius = radius
			break
		}
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
		if pauseLeft > 0 && s.pause[u] == ep {
			pauseLeft--
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
	return t.finish(*q, s.done, ep)
}

// PathTo returns the edge IDs of the tree path from the source to v, in
// source-to-v order, or nil if v is unreachable. For v == Source it returns
// an empty (non-nil) slice.
func (t *SPT) PathTo(v NodeID) []EdgeID {
	if t.Dist[v] == inf {
		return nil
	}
	path := t.AppendPath([]EdgeID{}, v)
	slices.Reverse(path)
	return path
}

// AppendPath appends the tree path's edges to dst in v-to-source order
// and returns the extended slice: nothing for the source or a node the
// search did not reach.
func (t *SPT) AppendPath(dst []EdgeID, v NodeID) []EdgeID {
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
	// radius bounds plain searches by key (SetRadius); +Inf by default.
	// A fork searches under its base's radius.
	radius float64
	// Runs counts actual Dijkstra executions, exposed for ablation benches.
	Runs int
}

// NewSPTCache returns an empty cache over g.
func NewSPTCache(g *Graph) *SPTCache {
	return &SPTCache{g: g, trees: make(map[NodeID]*SPT), radius: inf}
}

// NewSPTCacheWithin returns a cache whose trees are computed with
// DijkstraWithin(src, stop): exact for every node of stop, unreachable
// beyond. Callers must only query distances/paths to nodes of stop (the
// router queries a net's pins plus its Steiner-candidate pool).
func NewSPTCacheWithin(g *Graph, stop []NodeID) *SPTCache {
	return &SPTCache{g: g, trees: make(map[NodeID]*SPT), stop: stop, radius: inf}
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
	return &SPTCache{g: c.g, trees: make(map[NodeID]*SPT), stop: c.stop, scratch: s, base: c, bounds: c.bounds, overlay: c.overlay, radius: inf}
}

// SetRadius bounds the cache's plain searches by key: a later miss, and
// a Resume, stops once the smallest key left in its heap exceeds r. The
// pops up to there are the unbounded search's, so the tree holds the
// unbounded tree's labels and parents at every node within r of its root
// and reads unreachable beyond. r = +Inf, the default, removes the bound.
// Lowering the radius keeps every cached tree; raising it drops every tree
// a smaller radius cut short, and every paused tree, so a lookup never
// returns a tree that is not exact within the cache's radius. Searches
// under an overlay or bounds ignore the radius. Forks search under their
// base's current radius, so set it only while no fork is searching.
func (c *SPTCache) SetRadius(r float64) {
	if r > c.radius {
		for v, t := range c.trees {
			if t.paused || t.radius < r {
				delete(c.trees, v)
				c.scratch.RecycleSPT(t)
			}
		}
	}
	c.radius = r
}

// keyRadius returns the radius the cache's searches run under: its own,
// or its base's for a fork.
func (c *SPTCache) keyRadius() float64 {
	if c.base != nil {
		return c.base.keyRadius()
	}
	return c.radius
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
	t := c.search(s, s.takeSPT(), src, nil)
	c.trees[src] = t
	c.Runs++
	return t
}

// search runs the cache's configured search from src on scratch s, into
// t. Only the plain search pauses at pause (when non-nil) and honours the
// radius.
func (c *SPTCache) search(s *DijkstraScratch, t *SPT, src NodeID, pause []NodeID) *SPT {
	switch {
	case c.overlay != nil && c.bounds != nil && c.stop != nil:
		return c.g.goalDirectedOverlay(s, t, src, c.stop, c.overlay, c.bounds.ToSet(c.stop))
	case c.overlay != nil:
		return c.g.dijkstraOverlayWith(s, t, src, c.stop, c.overlay)
	case c.bounds != nil && c.stop != nil:
		return c.g.goalDirected(s, t, src, c.stop, c.bounds.ToSet(c.stop))
	default:
		return c.g.dijkstraInto(s, t, src, c.stop, pause, c.keyRadius())
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
	c.warm(srcs, nil, run)
}

// WarmPaused is Warm with every plain search paused as soon as it has
// settled every node of srcs (a search that reaches its end first just
// finishes). A paused tree keeps its heap, and the labels of nodes it has
// reached but not settled, which are tentative: until Resume continues
// it, only reads at its settled nodes — among them every node of srcs it
// can reach — are exact, distances and paths alike. Searches under an
// overlay or bounds do not pause.
func (c *SPTCache) WarmPaused(srcs []NodeID, run func(n int, fill func(i int, s *DijkstraScratch))) {
	c.warm(srcs, srcs, run)
}

// warm is Warm with the searches pausing at pause (nil: never).
func (c *SPTCache) warm(srcs, pause []NodeID, run func(n int, fill func(i int, s *DijkstraScratch))) {
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
		c.search(s, todo[i], todo[i].Source, pause)
	})
	for _, t := range todo {
		c.trees[t.Source] = t
	}
	c.Runs += len(todo)
}

// Resume continues every paused tree rooted at a node of srcs, under the
// cache's current radius, with the goroutine contract of Warm: run must
// call fill(i, s) once for every i in [0, n), each call with a scratch no
// other goroutine is using. A resumed search is the paused one carried on,
// not a new run: Runs and the scratches' Runs stay, while HeapPushes and
// Settled count on the scratch it resumes on. Each tree ends as the
// uninterrupted search under the radius would have left it.
func (c *SPTCache) Resume(srcs []NodeID, run func(n int, fill func(i int, s *DijkstraScratch))) {
	todo := make([]*SPT, 0, len(srcs))
	for _, v := range srcs {
		if t, ok := c.trees[v]; ok && t.paused && !slices.Contains(todo, t) {
			todo = append(todo, t)
		}
	}
	if len(todo) == 0 {
		return
	}
	c.g.ensureCSR()
	radius := c.keyRadius()
	run(len(todo), func(i int, s *DijkstraScratch) {
		c.g.resume(s, todo[i], c.stop, radius)
	})
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

// NumCached returns how many trees lookups through c can find: c's own,
// plus its base's when c is a fork.
func (c *SPTCache) NumCached() int {
	n := len(c.trees)
	if c.base != nil {
		n += c.base.NumCached()
	}
	return n
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
	return t.AppendPath(dst, x)
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
