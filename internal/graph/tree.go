package graph

import (
	"fmt"
	"slices"
)

// Tree is a routing solution: a set of edge IDs of the underlying graph that
// forms a tree spanning a net, plus its total cost. Edge IDs refer to the
// graph the solution was computed on. The JSON tags define the service wire
// format (a tree round-trips through encoding/json bit-identically).
type Tree struct {
	Edges []EdgeID `json:"edges"`
	Cost  float64  `json:"cost"`
}

// NewTree builds a Tree from edge IDs, computing the cost from g.
func NewTree(g *Graph, edges []EdgeID) Tree {
	return Tree{Edges: edges, Cost: g.TotalWeight(edges)}
}

// Nodes returns the sorted set of nodes touched by the tree's edges.
func (t Tree) Nodes(g *Graph) []NodeID {
	seen := make(map[NodeID]bool, 2*len(t.Edges))
	for _, id := range t.Edges {
		e := g.Edge(id)
		seen[e.U] = true
		seen[e.V] = true
	}
	nodes := make([]NodeID, 0, len(seen))
	for v := range seen {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	return nodes
}

// ValidateTree checks that t is a tree (acyclic, connected over its own
// nodes) that spans every node of net. A net of one node is spanned by an
// empty tree. It returns a descriptive error on the first violation.
func ValidateTree(g *Graph, t Tree, net []NodeID) error {
	if len(net) <= 1 && len(t.Edges) == 0 {
		return nil
	}
	uf := NewUnionFind(g.NumNodes())
	seen := make(map[EdgeID]bool, len(t.Edges))
	for _, id := range t.Edges {
		if seen[id] {
			return fmt.Errorf("graph: duplicate edge %d in tree", id)
		}
		seen[id] = true
		e := g.Edge(id)
		if !uf.Union(e.U, e.V) {
			return fmt.Errorf("graph: cycle introduced by edge %d {%d,%d}", id, e.U, e.V)
		}
	}
	for _, v := range net[1:] {
		if !uf.Connected(net[0], v) {
			return fmt.Errorf("graph: net node %d not connected to %d", v, net[0])
		}
	}
	// Connectivity over the tree's own node set: a tree on k nodes has k-1
	// edges; the union-find gives us component counts implicitly via the
	// acyclicity check above plus a node count check.
	nodes := t.Nodes(g)
	if len(t.Edges) != len(nodes)-1 && len(nodes) > 0 {
		return fmt.Errorf("graph: %d edges over %d nodes is not a tree", len(t.Edges), len(nodes))
	}
	return nil
}

// TreeDists returns the distance from src to every node of the tree, walking
// only the tree's edges, as a map (nodes outside the tree are absent). It is
// used to verify the shortest-paths (arborescence) property of solutions.
func TreeDists(g *Graph, t Tree, src NodeID) map[NodeID]float64 {
	adj := make(map[NodeID][]Arc)
	for _, id := range t.Edges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], Arc{To: e.V, ID: id})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, ID: id})
	}
	dist := map[NodeID]float64{src: 0}
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if _, ok := dist[a.To]; ok {
				continue
			}
			dist[a.To] = dist[u] + g.Weight(a.ID)
			stack = append(stack, a.To)
		}
	}
	return dist
}

// MaxPathlength returns the maximum over sinks of the tree-path cost from
// src, i.e. the "maximum source-sink pathlength" criterion of the paper.
// It panics if a sink is not in the tree (callers validate first).
func MaxPathlength(g *Graph, t Tree, src NodeID, sinks []NodeID) float64 {
	dist := TreeDists(g, t, src)
	maxd := 0.0
	for _, s := range sinks {
		d, ok := dist[s]
		if !ok {
			panic(fmt.Sprintf("graph: sink %d not spanned by tree", s))
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// PruneTree repeatedly removes pendant (degree-1) tree nodes that are not in
// keep, returning the pruned tree. This is the final clean-up step of KMB
// and of every construction that unions shortest paths.
//
// It runs once per Steiner-candidate evaluation, so its working state lives
// on s, sized by the edge set rather than by |V|: endpoints get dense local
// IDs in first-occurrence order from s's epoch-stamped node→slot array
// (NodeSet, which this call re-acquires, invalidating any the caller
// holds), and incidence lives in one flat prefix-summed array. The
// leaf-pruning fixpoint is confluent — it has a unique result no matter the
// removal order — and the output keeps the input edge order, so the
// numbering is unobservable. The returned edge slice is the one allocation
// and never aliases edges' backing array.
func PruneTree(g *Graph, s *DijkstraScratch, edges []EdgeID, keep []NodeID) Tree {
	if len(edges) == 0 {
		return NewTree(g, edges[:0:0])
	}
	m := len(edges)
	p := &s.prune
	ns := s.NodeSet(g.NumNodes())
	lu := p.lu.take(m)
	lv := p.lv.take(m)
	for i, id := range edges {
		lu[i] = ns.Slot(g.eu[id])
		lv[i] = ns.Slot(g.ev[id])
	}
	n := int32(ns.Len())
	deg := p.deg.take(int(n))
	clear(deg)
	for i := range lu {
		deg[lu[i]]++
		deg[lv[i]]++
	}
	// Flat incidence: node v's half-edges occupy half[off[v]:off[v+1]].
	off := p.off.take(int(n) + 1)
	off[0] = 0
	for v := int32(0); v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	cur := p.cur.take(int(n))
	copy(cur, off[:n])
	half := p.half.take(2 * m)
	for i := range lu {
		half[cur[lu[i]]] = halfEdge{int32(i), lv[i]}
		cur[lu[i]]++
		half[cur[lv[i]]] = halfEdge{int32(i), lu[i]}
		cur[lv[i]]++
	}
	keepSet := p.keep.take(int(n))
	clear(keepSet)
	for _, v := range keep {
		if ns.Has(v) {
			keepSet[ns.Slot(v)] = true
		}
	}
	alive := p.alive.take(m)
	for i := range alive {
		alive[i] = true
	}
	live := m
	queue := p.queue.take(0)
	for v := int32(0); v < n; v++ {
		if deg[v] == 1 && !keepSet[v] {
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if deg[v] != 1 || keepSet[v] {
			continue
		}
		for _, h := range half[off[v]:off[v+1]] {
			if !alive[h.pos] {
				continue
			}
			alive[h.pos] = false
			live--
			deg[v]--
			deg[h.other]--
			if deg[h.other] == 1 && !keepSet[h.other] {
				queue = append(queue, h.other)
			}
		}
	}
	p.queue = queue
	out := make([]EdgeID, 0, live)
	for i, id := range edges {
		if alive[i] {
			out = append(out, id)
		}
	}
	return NewTree(g, out)
}

// halfEdge is one directed occurrence of a tree edge in PruneTree's flat
// incidence array.
type halfEdge struct {
	pos   int32 // index into the input edge slice
	other int32 // local ID of the other endpoint
}

// pruneScratch holds PruneTree's working slices on a DijkstraScratch.
type pruneScratch struct {
	lu    reuse[int32]
	lv    reuse[int32]
	deg   reuse[int32]
	off   reuse[int32]
	cur   reuse[int32]
	queue reuse[int32]
	keep  reuse[bool]
	alive reuse[bool]
	half  reuse[halfEdge]
}

// reuse is a grow-only slice that hands out length-n views of one backing
// array. Contents are stale; callers overwrite or clear as needed.
type reuse[T any] []T

func (r *reuse[T]) take(n int) []T {
	if cap(*r) < n {
		*r = make([]T, n)
	}
	*r = (*r)[:n]
	return *r
}

// Subgraph returns a new graph with the same node count as g containing only
// the given edges (deduplicated), with each new edge keeping the weight of
// its original. The returned mapping translates the new graph's edge IDs
// back to g's.
func Subgraph(g *Graph, edges []EdgeID) (*Graph, []EdgeID) {
	sub := New(g.NumNodes())
	var back []EdgeID
	seen := make(map[EdgeID]bool, len(edges))
	for _, id := range edges {
		if seen[id] {
			continue
		}
		seen[id] = true
		e := g.Edge(id)
		sub.AddEdge(e.U, e.V, e.W)
		back = append(back, id)
	}
	return sub, back
}
