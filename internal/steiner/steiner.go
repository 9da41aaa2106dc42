// Package steiner implements the classical graph Steiner tree heuristics the
// paper builds on and compares against: the KMB heuristic of Kou, Markowsky
// and Berman (performance ratio 2·(1−1/L)) and the ZEL heuristic of
// Zelikovsky (ratio 11/6), plus an exact Dreyfus–Wagner solver used as a
// test oracle and for optimality normalization on small instances.
//
// All heuristics share the signature expected by the IGMST template in
// package core: they take a shortest-paths cache over a frozen graph state
// and a net (first node = source, rest = sinks), and return a Tree over the
// original graph's edge IDs.
package steiner

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"fpgarouter/internal/graph"
)

// ErrNoRoute is returned when a net's pins are not all mutually reachable
// through enabled edges.
var ErrNoRoute = errors.New("steiner: net pins not connected")

// Heuristic is a graph Steiner tree construction: it returns a tree over
// cache.Graph() spanning net. The IGMST template accepts any Heuristic.
type Heuristic func(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error)

// CheckNet validates a net: at least one pin, no duplicates, all pins
// mutually reachable in the cache's graph. Returns ErrNoRoute or a
// descriptive error. It runs once per base-heuristic evaluation, so the
// duplicate check uses the cache's pooled node set rather than a per-call
// map; the range check comes first because the set indexes by pin ID.
func CheckNet(cache *graph.SPTCache, net []graph.NodeID) error {
	if len(net) == 0 {
		return errors.New("steiner: empty net")
	}
	n := cache.Graph().NumNodes()
	for _, v := range net {
		if v < 0 || int(v) >= n {
			return errPinRange(v)
		}
	}
	seen := cache.NodeSet()
	for _, v := range net {
		if !seen.Add(v) {
			return errDuplicatePin(v)
		}
	}
	t := cache.Tree(net[0])
	for _, v := range net[1:] {
		if !t.Reachable(v) {
			return ErrNoRoute
		}
	}
	return nil
}

func errPinRange(v graph.NodeID) error { return fmt.Errorf("steiner: pin %d out of range", v) }

func errDuplicatePin(v graph.NodeID) error { return fmt.Errorf("steiner: duplicate pin %d", v) }

// DistanceGraph is the complete graph G' over a node subset whose edge
// weights are shortest-path distances in the underlying graph (the first
// step of both KMB and ZEL, and of the DOM arborescence construction).
//
// Index i of Terms corresponds to node i of the complete graph G.
type DistanceGraph struct {
	Terms []graph.NodeID
	G     *graph.Graph
	// pos maps an original node ID to its index in Terms.
	pos map[graph.NodeID]int
}

// NewDistanceGraph builds the distance graph over terms using cached
// shortest-path trees. Returns ErrNoRoute if any pair is disconnected.
func NewDistanceGraph(cache *graph.SPTCache, terms []graph.NodeID) (*DistanceGraph, error) {
	k := len(terms)
	dg := &DistanceGraph{
		Terms: append([]graph.NodeID(nil), terms...),
		G:     graph.New(k),
		pos:   make(map[graph.NodeID]int, k),
	}
	for i, v := range terms {
		dg.pos[v] = i
	}
	// Distances go through the cache's symmetric lookup so that evaluating
	// a candidate Steiner node never forces a Dijkstra rooted at the
	// candidate: the distance to every established terminal is read off
	// that terminal's (already cached) tree.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := cache.Dist(terms[i], terms[j])
			if d == graph.Inf() {
				return nil, ErrNoRoute
			}
			dg.G.AddEdge(graph.NodeID(i), graph.NodeID(j), d)
		}
	}
	return dg, nil
}

// Index returns the distance-graph index of original node v (which must be
// one of Terms).
func (dg *DistanceGraph) Index(v graph.NodeID) int { return dg.pos[v] }

// localMST computes an MST of the subgraph induced by the given edges of
// the cache's graph (deduplicated) using Kruskal over a compact node
// remapping, so its cost is proportional to the edge set, not to |V(g)|.
// The edge set is assumed to induce a connected subgraph (true for unions
// of shortest paths that expand a connected tree).
//
// This is the hot path of every candidate-Steiner-node evaluation in the
// iterated constructions (see DESIGN.md §5), so it allocates nothing on a
// warm scratch. The result aliases TreeBuffers.MST and is valid until the
// next call. It acquires the cache's EdgeSet and NodeSet, invalidating any
// the caller still holds.
func localMST(cache *graph.SPTCache, edges []graph.EdgeID) []graph.EdgeID {
	keys, nodes, _ := unionKeys(cache, edges)
	return kruskal(cache, keys, nodes)
}

// unionKeys deduplicates edges into TreeBuffers.Keys, one key per distinct
// edge in first-occurrence order, and gives each endpoint a dense slot in
// the cache's NodeSet, which it returns still live for kruskal. Dedup and
// remapping run on the cache's epoch sets (it acquires the EdgeSet and the
// NodeSet). Each key holds the edge's weight as the cache's searches see
// it (base + overlay price, when an overlay is attached), read once, so
// the MST agrees with the searches that produced the edge set. sum is the
// naive sum of the distinct edges' base weights in key order — the cost
// of the union, which KMBScreened's screen bounds.
func unionKeys(cache *graph.SPTCache, edges []graph.EdgeID) (keys []graph.WeightedEdge, nodes graph.NodeSet, sum float64) {
	g := cache.Graph()
	b := cache.Scratch().TreeBuffers()
	seen := cache.EdgeSet()
	nodes = cache.NodeSet()
	keys = b.Keys[:0]
	for _, e := range edges {
		if seen.Add(e) {
			keys = append(keys, graph.WeightedEdge{W: cache.EdgeWeight(e), ID: e})
			ge := g.Edge(e)
			sum += ge.W
			nodes.Slot(ge.U)
			nodes.Slot(ge.V)
		}
	}
	b.Keys = keys
	return keys, nodes, sum
}

// kruskal sorts unionKeys' keys by (weight, ID), a total order, so the
// result is independent of the input order and of repeats, and returns the
// MST over nodes' slots in sorted order, in TreeBuffers.MST.
func kruskal(cache *graph.SPTCache, keys []graph.WeightedEdge, nodes graph.NodeSet) []graph.EdgeID {
	g := cache.Graph()
	b := cache.Scratch().TreeBuffers()
	slices.SortFunc(keys, func(x, y graph.WeightedEdge) int {
		return cmp.Or(cmp.Compare(x.W, y.W), cmp.Compare(x.ID, y.ID))
	})
	b.UF.Reset(nodes.Len())
	mst := b.MST[:0]
	for _, k := range keys {
		ge := g.Edge(k.ID)
		if b.UF.Union(nodes.Slot(ge.U), nodes.Slot(ge.V)) {
			mst = append(mst, k.ID)
		}
	}
	b.MST = mst
	return mst
}

// grow returns a length-n view of *buf, reallocating only when its
// capacity falls short. Contents are stale.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// sortedCopy returns a sorted copy of nodes (determinism helper).
func sortedCopy(nodes []graph.NodeID) []graph.NodeID {
	c := append([]graph.NodeID(nil), nodes...)
	slices.Sort(c)
	return c
}
