package graph

import (
	"sync"
	"sync/atomic"
)

// DijkstraScratch pools the per-run working state of Dijkstra searches:
// the binary heap, the settled/stop-set marks (reset in O(1) by bumping an
// epoch counter instead of clearing), and a free list of recycled SPTs so
// the router's ~O(nets × candidates × passes) shortest-path calls stop
// allocating |V|-sized arrays. It also hosts the epoch-based edge/node sets
// the Steiner heuristics use in place of per-call maps, their grow-only
// working slices (TreeBuffers) and PruneTree's, so a base-heuristic
// evaluation on a warm scratch allocates only the tree it returns.
//
// A scratch is NOT safe for concurrent use: it belongs to exactly one
// goroutine at a time. The parallel width search gives each probe goroutine
// its own scratch via AcquireScratch/ReleaseScratch (a sync.Pool), which is
// the intended sharing model. A scratch may be reused across graphs of
// different sizes; buffers grow on demand and are retained at high water.
//
// The exported counters accumulate monotonically across runs; the router's
// stats layer reads deltas around each net. They are plain ints (no
// atomics) because of the single-goroutine ownership rule.
type DijkstraScratch struct {
	heap pq
	done []uint32 // node → epoch at which it was settled
	stop []uint32 // node → epoch at which it joined the stop set
	// pinNbr: node → epoch at which an overlay search found it adjacent to
	// an unblocked pin, so its pin tail may relax (see markPinNeighbours).
	pinNbr []uint32
	pause  []uint32 // node → epoch at which it joined a plain search's pause set
	ep     uint32   // current Dijkstra epoch (done/stop/pinNbr/pause marks)
	free   []*SPT   // recycled shortest-path trees

	// Second frontier for bidirectional search (BiDijkstraOverlay): its
	// own heap and settled marks, sharing the epoch counter with the
	// forward side.
	heapB pq
	doneB []uint32

	edgeMark []uint32 // edge → epoch of membership in the live EdgeSet
	edgeEp   uint32
	nodeMark []uint32 // node → epoch of membership in the live NodeSet
	nodeSlot []int32  // node → dense slot assigned by the live NodeSet
	nodeEp   uint32
	nodeLen  int32 // slots assigned by the live NodeSet

	tree  TreeBuffers  // Steiner constructions' working slices
	prune pruneScratch // PruneTree's working slices

	// Runs counts Dijkstra executions through this scratch.
	Runs int64
	// HeapPushes counts priority-queue insertions (including re-pushes from
	// lazy deletion), the classic SSSP work measure.
	HeapPushes int64
	// Settled counts nodes permanently labelled across all runs.
	Settled int64
}

// NewDijkstraScratch returns an empty scratch. Most callers should prefer
// AcquireScratch/ReleaseScratch, which recycle warm buffers process-wide.
func NewDijkstraScratch() *DijkstraScratch { return new(DijkstraScratch) }

var scratchPool = sync.Pool{New: func() any { return new(DijkstraScratch) }}

// liveScratches counts scratches checked out of the pool and not yet
// released or discarded. The chaos tests assert it returns to its baseline
// after panics and cancellations, proving no pool entry is leaked (or,
// worse, double-released) by any failure path.
var liveScratches atomic.Int64

// LiveScratches reports how many pooled scratches are currently checked
// out. Observability for leak tests; production code has no reason to read
// it.
func LiveScratches() int64 { return liveScratches.Load() }

// AcquireScratch takes a scratch from the process-wide pool. Pair with
// ReleaseScratch (or, after a panic that may have interrupted a run on it,
// DiscardScratch) when the routing context that owns it is done.
func AcquireScratch() *DijkstraScratch {
	liveScratches.Add(1)
	return scratchPool.Get().(*DijkstraScratch)
}

// ReleaseScratch returns a scratch (and every SPT recycled into it) to the
// pool. The caller must not use the scratch, or any SPT obtained through a
// cache backed by it and since released, after this call.
func ReleaseScratch(s *DijkstraScratch) {
	liveScratches.Add(-1)
	scratchPool.Put(s)
}

// DiscardScratch drops a scratch without returning it to the pool: the
// fault-tolerance layer calls this for scratches whose owning goroutine
// panicked mid-run, trading a little garbage for the certainty that no
// possibly-inconsistent buffers re-enter the pool.
func DiscardScratch(s *DijkstraScratch) {
	if s != nil {
		liveScratches.Add(-1)
	}
}

// beginRun opens a fresh epoch for a new search (openEpoch) and counts
// the run.
func (s *DijkstraScratch) beginRun(n int) uint32 {
	s.Runs++
	return s.openEpoch(n)
}

// openEpoch sizes the mark arrays for an n-node graph and opens a fresh
// epoch, invalidating all done/stop/pinNbr/pause marks in O(1).
func (s *DijkstraScratch) openEpoch(n int) uint32 {
	if len(s.done) < n {
		s.done = make([]uint32, n)
		s.stop = make([]uint32, n)
		s.doneB = make([]uint32, n)
		s.pinNbr = make([]uint32, n)
		s.pause = make([]uint32, n)
		s.ep = 0
	}
	s.ep++
	if s.ep == 0 { // epoch counter wrapped: stale marks could alias, clear
		clear(s.done)
		clear(s.stop)
		clear(s.doneB)
		clear(s.pinNbr)
		clear(s.pause)
		s.ep = 1
	}
	return s.ep
}

// markStop stamps every node of stop, and src, as a stop node of epoch ep
// and returns how many distinct nodes that is: the count a search settles
// before it may finish early. A nil stop set returns -1 (settle
// everything).
func (s *DijkstraScratch) markStop(stop []NodeID, src NodeID, ep uint32) int {
	if stop == nil {
		return -1
	}
	remaining := 0
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
	return remaining
}

// acquireSPT pops a recycled tree (or allocates one), sizes it for an
// n-node graph and initializes every label to unreachable.
func (s *DijkstraScratch) acquireSPT(n int, src NodeID) *SPT {
	return s.takeSPT().reset(n, src)
}

// takeSPT pops a recycled tree, or allocates an empty one; its labels are
// stale until reset.
func (s *DijkstraScratch) takeSPT() *SPT {
	if k := len(s.free); k > 0 {
		t := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return t
	}
	return new(SPT)
}

// reset sizes t for an n-node graph, growing its buffers only when their
// capacity falls short, and initializes every label to unreachable. A tree
// whose last search finished on a graph of the same size holds labels only
// at its settled nodes (see finish), so only those are cleared; a fresh
// buffer, a size change or an unfinished search (a panic mid-run, a paused
// search, or a search that keeps no settled list) clears all n.
func (t *SPT) reset(n int, src NodeID) *SPT {
	switch {
	case cap(t.Dist) < n:
		t.Dist = make([]float64, n)
		t.ParentEdge = make([]EdgeID, n)
		t.ParentNode = make([]NodeID, n)
		t.clearAll()
	case len(t.Dist) != n || !t.tidy:
		t.Dist = t.Dist[:n]
		t.ParentEdge = t.ParentEdge[:n]
		t.ParentNode = t.ParentNode[:n]
		t.clearAll()
	default:
		for _, v := range t.settled {
			t.Dist[v] = inf
			t.ParentEdge[v] = None
			t.ParentNode[v] = None
		}
	}
	t.Source = src
	t.settled = t.settled[:0]
	t.tidy = false
	t.paused = false
	t.heap = t.heap[:0]
	t.radius = inf
	return t
}

// clearAll marks every node unreachable.
func (t *SPT) clearAll() {
	for i := range t.Dist {
		t.Dist[i] = inf
		t.ParentEdge[i] = None
		t.ParentNode[i] = None
	}
}

// finish ends a search on t whose heap still holds q. Every label write
// pushes its node, and a node leaves the heap only by being popped, which
// settles it; so every labelled node not yet settled still has an entry
// in q. Clearing those entries' labels makes every unsettled node read
// unreachable in O(|q|) rather than O(n), and leaves labels only at the
// settled nodes, which is what lets the next reset clear only those.
func (t *SPT) finish(q pq, done []uint32, ep uint32) *SPT {
	for _, it := range q {
		if v := it.node; done[v] != ep {
			t.Dist[v] = inf
			t.ParentEdge[v] = None
			t.ParentNode[v] = None
		}
	}
	t.tidy = true
	return t
}

// RecycleSPT returns a tree's buffers to the scratch for reuse by a later
// Dijkstra run. The caller must drop every reference to the tree (and to
// slices read off it, like Dist) before recycling; SPTCache.Release does
// this for a whole per-net cache at once.
func (s *DijkstraScratch) RecycleSPT(t *SPT) {
	if t != nil {
		s.free = append(s.free, t)
	}
}

// EdgeSet is an O(1)-reset membership set over edge IDs, backed by its
// scratch's epoch-stamped array. At most one EdgeSet per scratch is live at
// a time: acquiring a new one (DijkstraScratch.EdgeSet or SPTCache.EdgeSet)
// invalidates the previous.
type EdgeSet struct{ s *DijkstraScratch }

// EdgeSet returns the scratch's edge set, emptied and sized for numEdges
// edges.
func (s *DijkstraScratch) EdgeSet(numEdges int) EdgeSet {
	if len(s.edgeMark) < numEdges {
		s.edgeMark = make([]uint32, numEdges)
		s.edgeEp = 0
	}
	s.edgeEp++
	if s.edgeEp == 0 {
		clear(s.edgeMark)
		s.edgeEp = 1
	}
	return EdgeSet{s}
}

// Add inserts id and reports whether it was absent.
func (es EdgeSet) Add(id EdgeID) bool {
	if es.s.edgeMark[id] == es.s.edgeEp {
		return false
	}
	es.s.edgeMark[id] = es.s.edgeEp
	return true
}

// Has reports membership of id.
func (es EdgeSet) Has(id EdgeID) bool { return es.s.edgeMark[id] == es.s.edgeEp }

// NodeSet is an O(1)-reset membership set over node IDs that also assigns
// dense slots [0, Len) in insertion order — the compact remapping the local
// MST construction needs. Like EdgeSet, at most one per scratch is live.
type NodeSet struct{ s *DijkstraScratch }

// NodeSet returns the scratch's node set, emptied and sized for n nodes.
func (s *DijkstraScratch) NodeSet(n int) NodeSet {
	if len(s.nodeMark) < n {
		s.nodeMark = make([]uint32, n)
		s.nodeSlot = make([]int32, n)
		s.nodeEp = 0
	}
	s.nodeEp++
	if s.nodeEp == 0 {
		clear(s.nodeMark)
		s.nodeEp = 1
	}
	s.nodeLen = 0
	return NodeSet{s}
}

// Add inserts v (assigning it the next slot) and reports whether it was
// absent.
func (ns NodeSet) Add(v NodeID) bool {
	if ns.s.nodeMark[v] == ns.s.nodeEp {
		return false
	}
	ns.s.nodeMark[v] = ns.s.nodeEp
	ns.s.nodeSlot[v] = ns.s.nodeLen
	ns.s.nodeLen++
	return true
}

// Has reports membership of v.
func (ns NodeSet) Has(v NodeID) bool { return ns.s.nodeMark[v] == ns.s.nodeEp }

// Slot returns v's dense slot, inserting it first if absent.
func (ns NodeSet) Slot(v NodeID) int32 {
	ns.Add(v)
	return ns.s.nodeSlot[v]
}

// Len returns the number of distinct nodes inserted.
func (ns NodeSet) Len() int { return int(ns.s.nodeLen) }

// TreeBuffers are grow-only working slices for the Steiner constructions
// layered on a cache (package steiner's KMB, SPH and local MST). They live
// on the scratch beside EdgeSet and NodeSet and follow the same rules: one
// goroutine owns them, their contents are stale between uses, and a
// construction must be done with a buffer before it calls anything that
// reuses it. They are not pooled separately: the race detector drops a
// share of sync.Pool puts, which would turn a per-call Get into a per-call
// allocation, whereas the scratch lives as long as its routing context.
type TreeBuffers struct {
	PrimKey  []float64      // distance-graph Prim: best key per net index
	PrimFrom []int32        // distance-graph Prim: parent per net index
	PrimDone []bool         // distance-graph Prim: in-tree flags
	Pairs    [][2]int32     // distance-graph MST as net-index pairs
	Paths    []EdgeID       // expanded shortest paths (duplicates allowed)
	Keys     []WeightedEdge // local-MST sort keys
	MST      []EdgeID       // local-MST edges, PruneTree's input
	UF       UnionFind      // local-MST components
}

// WeightedEdge is an edge with its effective weight, read once so that a
// sort by weight does not re-read it in every comparison.
type WeightedEdge struct {
	W  float64
	ID EdgeID
}

// TreeBuffers returns the scratch's Steiner working slices.
func (s *DijkstraScratch) TreeBuffers() *TreeBuffers { return &s.tree }
