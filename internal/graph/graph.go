// Package graph provides the weighted-graph substrate used by all routing
// algorithms in this repository: a compact undirected graph with mutable
// edge weights and edge enable/disable flags (so a router can commit wire
// segments to nets), single-source shortest paths (plain, goal-directed and
// bidirectional), minimum spanning trees, and small utilities (union-find,
// grid builders, an all-pairs oracle).
//
// The graph model follows Section 2 of Alexander & Robins (DAC 1995): an
// FPGA's routing resources induce a weighted graph G = (V, E) where each
// edge weight reflects wirelength and, as routing proceeds, congestion.
// Nets are sets of node IDs; routing solutions are trees of edge IDs.
//
// # Memory layout
//
// The graph is stored as flat parallel arrays (structure-of-arrays), not as
// per-node adjacency slices: endpoints, weights and enable bits live in
// edge-indexed streams, and traversal runs over a CSR (compressed sparse
// row) view — node-indexed offsets into one flat arc array. The CSR view is
// rebuilt lazily after topology mutations (AddEdge) and updated in place by
// attribute mutations (SetWeight/SetEnabled), so the router's per-net
// enable/weight churn never pays a rebuild. See DESIGN.md §6 for the layout,
// the freeze/rebuild rules, and the traversal-order guarantees.
package graph

import (
	"fmt"
	"iter"
	"math"
)

// NodeID identifies a node in a Graph. Nodes are dense integers in [0, N).
type NodeID = int32

// EdgeID identifies an edge in a Graph. Edges are dense integers in [0, E).
type EdgeID = int32

// None is the sentinel for "no node" / "no edge" in parent arrays.
const None int32 = -1

// inf is the package-internal unreachable-distance sentinel. It is also the
// in-CSR encoding of a disabled edge's effective weight, which is why +Inf
// is rejected as an edge weight (see AddEdge).
var inf = math.Inf(1)

// Inf returns the distance assigned to unreachable nodes. It is a function,
// not a package variable, so no caller can corrupt the global distance
// semantics by assignment (Go cannot express an untyped +Inf constant).
func Inf() float64 { return inf }

// Edge is a single undirected weighted edge.
type Edge struct {
	U, V    NodeID
	W       float64
	Enabled bool
}

// Arc is one direction of an edge as stored in the CSR adjacency view.
type Arc struct {
	To NodeID
	ID EdgeID
}

// Graph is a mutable undirected weighted graph.
//
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count. Node IDs are assigned by the caller in [0, N);
// edge IDs are assigned densely by AddEdge in insertion order, which keeps
// all algorithms in this module deterministic for a fixed construction
// order.
//
// Concurrency: attribute mutations (SetWeight, SetEnabled, AddWeight) and
// reads are safe only from one goroutine at a time, as before. Read-only
// sharing (the router's parallel candidate scans and net workers) requires
// the CSR view to be current: call Freeze after the last AddEdge — the
// fabric builders do — because a traversal on a stale view would otherwise
// rebuild it lazily, racing concurrent readers.
type Graph struct {
	n int

	// Edge-indexed attribute streams.
	eu, ev  []NodeID  // endpoints
	w       []float64 // weights
	enabled []uint64  // enable flags, bit id&63 of word id>>6

	// CSR adjacency view over the edges above. arcs[offsets[u]:offsets[u+1]]
	// are node u's arcs in edge-insertion order; arcw carries each arc's
	// effective weight — the edge weight, or +Inf when the edge is disabled,
	// so the relaxation loop skips disabled edges with no extra memory
	// access. slots maps edge id → its two arc positions (2id, 2id+1) for
	// in-place attribute updates. dirty marks the view stale after AddEdge
	// or SetPinBoundary.
	offsets []int32
	arcs    []Arc
	arcw    []float64
	slots   []int32
	dirty   bool

	// pinLo is the pin boundary (SetPinBoundary): nodes at or above it are
	// pins. tails[u] is the trailing run of u's arcs into pins and how many
	// of them are enabled, so a search can skip a run no arc of which can
	// relax. With no boundary declared pinLo is n and every run is empty.
	pinLo NodeID
	tails []pinTail
}

// pinTail describes the trailing run of one node's CSR arcs that lead into
// pin nodes: arcs[start:offsets[u+1]], of which on are enabled.
type pinTail struct {
	start int32
	on    int32
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, offsets: make([]int32, n+1), pinLo: NodeID(n), tails: make([]pinTail, n)}
}

// SetPinBoundary declares nodes [lo, NumNodes()) pin nodes: endpoints a
// route may enter only when the caller enables (or, under an overlay,
// unblocks) them. The CSR view then records, per node, the trailing run of
// its arcs into pins, and the searches skip that run when none of its arcs
// can relax: a plain search when every arc in the run is disabled, an
// overlay search when every pin the run reaches is blocked. Results and
// work counters are unchanged; only the arcs scanned shrink. The skip pays
// off when pin edges are added last, so that each node's arcs into pins
// form one trailing run (the FPGA fabric adds its connection-block taps
// after every wire). Declare the boundary before Freeze; it marks the CSR
// view stale.
func (g *Graph) SetPinBoundary(lo NodeID) {
	if lo < 0 || int(lo) > g.n {
		panic(fmt.Sprintf("graph: pin boundary %d out of range [0,%d]", lo, g.n))
	}
	g.pinLo = lo
	g.dirty = true
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the number of edges ever added (enabled or not).
func (g *Graph) NumEdges() int { return len(g.eu) }

// AddEdge adds an undirected edge {u, v} with weight w and returns its ID.
// Self-loops, negative, NaN and +Inf weights are rejected because no
// algorithm in this repository is defined over them (+Inf doubles as the
// disabled-edge encoding in the CSR weight stream); parallel edges are
// allowed (FPGA channels legitimately contain parallel tracks).
//
// Adding an edge marks the CSR view stale; the next traversal (or an
// explicit Freeze) rebuilds it.
func (g *Graph) AddEdge(u, v NodeID, w float64) EdgeID {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge {%d,%d}", w, u, v))
	}
	id := EdgeID(len(g.eu))
	g.eu = append(g.eu, u)
	g.ev = append(g.ev, v)
	g.w = append(g.w, w)
	if int(id)>>6 >= len(g.enabled) {
		g.enabled = append(g.enabled, 0)
	}
	g.enabled[id>>6] |= 1 << (uint(id) & 63)
	g.dirty = true
	return id
}

// Freeze rebuilds the CSR adjacency view if it is stale. Mutating topology
// (AddEdge, SetPinBoundary) marks the view dirty; every traversal entry
// point refreshes it lazily, so Freeze is only required before sharing the
// graph read-only across goroutines (the lazy rebuild is not
// concurrency-safe). Attribute mutations (SetWeight, SetEnabled) update the
// view in place and never dirty it.
func (g *Graph) Freeze() { g.ensureCSR() }

func (g *Graph) ensureCSR() {
	if g.dirty {
		g.rebuildCSR()
	}
}

// rebuildCSR builds the CSR view with a counting sort over edge IDs. Edges
// are placed in insertion (ID) order, so each node's arc run is ordered
// exactly like the append-built adjacency lists of the pre-CSR layout —
// the tie-break order every deterministic algorithm in this module relies
// on.
func (g *Graph) rebuildCSR() {
	m := len(g.eu)
	if cap(g.offsets) >= g.n+1 {
		g.offsets = g.offsets[:g.n+1]
		clear(g.offsets)
	} else {
		g.offsets = make([]int32, g.n+1)
	}
	for i := 0; i < m; i++ {
		g.offsets[g.eu[i]+1]++
		g.offsets[g.ev[i]+1]++
	}
	for i := 0; i < g.n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	if cap(g.arcs) >= 2*m {
		g.arcs = g.arcs[:2*m]
		g.arcw = g.arcw[:2*m]
		g.slots = g.slots[:2*m]
	} else {
		g.arcs = make([]Arc, 2*m)
		g.arcw = make([]float64, 2*m)
		g.slots = make([]int32, 2*m)
	}
	cur := make([]int32, g.n)
	copy(cur, g.offsets[:g.n])
	for id := 0; id < m; id++ {
		u, v := g.eu[id], g.ev[id]
		we := g.w[id]
		if !g.enabledBit(EdgeID(id)) {
			we = inf
		}
		pu := cur[u]
		cur[u]++
		g.arcs[pu] = Arc{To: v, ID: EdgeID(id)}
		g.arcw[pu] = we
		g.slots[2*id] = pu
		pv := cur[v]
		cur[v]++
		g.arcs[pv] = Arc{To: u, ID: EdgeID(id)}
		g.arcw[pv] = we
		g.slots[2*id+1] = pv
	}
	if cap(g.tails) >= g.n {
		g.tails = g.tails[:g.n]
	} else {
		g.tails = make([]pinTail, g.n)
	}
	for u := 0; u < g.n; u++ {
		lo, i := g.offsets[u], g.offsets[u+1]
		on := int32(0)
		for ; i > lo && g.arcs[i-1].To >= g.pinLo; i-- {
			if g.arcw[i-1] != inf {
				on++
			}
		}
		g.tails[u] = pinTail{start: i, on: on}
	}
	g.dirty = false
}

// scanEnd returns the end of the arcs a plain search scans out of u: the
// whole run, or the run minus its pin tail when no tail arc is enabled.
func (g *Graph) scanEnd(u NodeID) int32 {
	if tl := g.tails[u]; tl.on == 0 {
		return tl.start
	}
	return g.offsets[u+1]
}

// PinTail returns the trailing run of u's arcs that lead into pin nodes
// (see SetPinBoundary) and how many of them are enabled. The slice aliases
// the CSR view, like Adj's.
func (g *Graph) PinTail(u NodeID) ([]Arc, int) {
	g.ensureCSR()
	tl := g.tails[u]
	return g.arcs[tl.start:g.offsets[u+1]], int(tl.on)
}

func (g *Graph) enabledBit(id EdgeID) bool {
	return g.enabled[id>>6]&(1<<(uint(id)&63)) != 0
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return Edge{U: g.eu[id], V: g.ev[id], W: g.w[id], Enabled: g.enabledBit(id)}
}

// Weight returns the weight of edge id.
func (g *Graph) Weight(id EdgeID) float64 { return g.w[id] }

// SetWeight updates the weight of edge id. Weights must stay non-negative
// and finite. The CSR view is updated in place (no rebuild).
func (g *Graph) SetWeight(id EdgeID, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge %d", w, id))
	}
	g.w[id] = w
	if !g.dirty && g.enabledBit(id) {
		g.arcw[g.slots[2*id]] = w
		g.arcw[g.slots[2*id+1]] = w
	}
}

// AddWeight increments the weight of edge id by delta (used for congestion
// updates after a net is routed).
func (g *Graph) AddWeight(id EdgeID, delta float64) {
	g.SetWeight(id, g.w[id]+delta)
}

// Enabled reports whether edge id is currently usable.
func (g *Graph) Enabled(id EdgeID) bool { return g.enabledBit(id) }

// SetEnabled enables or disables edge id. Disabled edges are invisible to
// every traversal; the router disables edges committed to a routed net so
// that subsequent nets remain electrically disjoint. The CSR view is
// updated in place: a disabled edge's effective arc weight becomes +Inf, so
// relaxation skips it without consulting the flag, and an arc in a pin
// tail (see SetPinBoundary) moves its node's enabled-tail count. Setting
// the state an edge already has is a no-op.
func (g *Graph) SetEnabled(id EdgeID, enabled bool) {
	if g.enabledBit(id) == enabled {
		return
	}
	g.enabled[id>>6] ^= 1 << (uint(id) & 63)
	if g.dirty {
		return
	}
	we, d := inf, int32(-1)
	if enabled {
		we, d = g.w[id], 1
	}
	pu, pv := g.slots[2*id], g.slots[2*id+1]
	g.arcw[pu] = we
	g.arcw[pv] = we
	if u := g.eu[id]; pu >= g.tails[u].start {
		g.tails[u].on += d
	}
	if v := g.ev[id]; pv >= g.tails[v].start {
		g.tails[v].on += d
	}
}

// Adj returns the adjacency run of u, including arcs over disabled edges;
// callers that traverse must check Enabled (or use EnabledArcs). The
// returned slice aliases the graph's CSR view and must not be modified; it
// is invalidated by the next AddEdge.
func (g *Graph) Adj(u NodeID) []Arc {
	g.ensureCSR()
	return g.arcs[g.offsets[u]:g.offsets[u+1]]
}

// EnabledArcs iterates over the enabled arcs out of u together with their
// current weights, replacing the open-coded
// "range Adj, skip if !Enabled, load Weight" pattern — the filter reads the
// CSR weight stream only (disabled arcs carry +Inf there), so it performs
// no per-arc random access into edge records.
func (g *Graph) EnabledArcs(u NodeID) iter.Seq2[Arc, float64] {
	g.ensureCSR()
	lo, hi := g.offsets[u], g.offsets[u+1]
	return func(yield func(Arc, float64) bool) {
		for i := lo; i < hi; i++ {
			if w := g.arcw[i]; w != inf {
				if !yield(g.arcs[i], w) {
					return
				}
			}
		}
	}
}

// Degree returns the number of enabled edges incident to u.
func (g *Graph) Degree(u NodeID) int {
	g.ensureCSR()
	d := 0
	for _, w := range g.arcw[g.offsets[u]:g.offsets[u+1]] {
		if w != inf {
			d++
		}
	}
	return d
}

// Other returns the endpoint of edge id that is not u.
func (g *Graph) Other(id EdgeID, u NodeID) NodeID {
	if g.eu[id] == u {
		return g.ev[id]
	}
	if g.ev[id] == u {
		return g.eu[id]
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", u, id))
}

// Clone returns a deep copy of the graph (including its CSR view, so the
// copy pays no rebuild). The copy shares no state with the original, so the
// router can restart passes from a pristine graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:       g.n,
		eu:      append([]NodeID(nil), g.eu...),
		ev:      append([]NodeID(nil), g.ev...),
		w:       append([]float64(nil), g.w...),
		enabled: append([]uint64(nil), g.enabled...),
		offsets: append([]int32(nil), g.offsets...),
		arcs:    append([]Arc(nil), g.arcs...),
		arcw:    append([]float64(nil), g.arcw...),
		slots:   append([]int32(nil), g.slots...),
		dirty:   g.dirty,
		pinLo:   g.pinLo,
		tails:   append([]pinTail(nil), g.tails...),
	}
}

// TotalWeight returns the sum of the weights of the given edges.
func (g *Graph) TotalWeight(ids []EdgeID) float64 {
	t := 0.0
	for _, id := range ids {
		t += g.w[id]
	}
	return t
}
