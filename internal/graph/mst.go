package graph

import (
	"errors"
	"slices"
)

// ErrDisconnected is returned when a spanning structure is requested over a
// graph (or node subset) that is not connected through enabled edges.
var ErrDisconnected = errors.New("graph: not connected")

// KruskalMST returns the edge IDs of a minimum spanning tree over the
// enabled edges of g, or ErrDisconnected. Ties are broken by edge ID so the
// result is deterministic.
func (g *Graph) KruskalMST() ([]EdgeID, error) {
	ids := make([]EdgeID, 0, len(g.eu))
	for i := range g.eu {
		if g.enabledBit(EdgeID(i)) {
			ids = append(ids, EdgeID(i))
		}
	}
	slices.SortFunc(ids, func(a, b EdgeID) int {
		wa, wb := g.w[a], g.w[b]
		if wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	uf := NewUnionFind(g.n)
	mst := make([]EdgeID, 0, g.n-1)
	for _, id := range ids {
		if uf.Union(g.eu[id], g.ev[id]) {
			mst = append(mst, id)
			if len(mst) == g.n-1 {
				break
			}
		}
	}
	if len(mst) != g.n-1 && g.n > 1 {
		return nil, ErrDisconnected
	}
	return mst, nil
}

// PrimMST returns a minimum spanning tree over the enabled edges of g grown
// from node start, or ErrDisconnected. It is the cross-oracle for Kruskal in
// tests and the MST of choice on the dense distance graphs built by the
// Steiner heuristics.
func (g *Graph) PrimMST(start NodeID) ([]EdgeID, error) {
	if g.n == 0 {
		return nil, nil
	}
	g.ensureCSR()
	inTree := make([]bool, g.n)
	best := make([]float64, g.n)
	bestEdge := make([]EdgeID, g.n)
	for i := range best {
		best[i] = inf
		bestEdge[i] = None
	}
	best[start] = 0
	q := pq{make([]float64, 0, 64), make([]NodeID, 0, 64)}
	q.push(0, start)
	mst := make([]EdgeID, 0, g.n-1)
	for len(q.keys) > 0 {
		u := q.pop()
		if inTree[u] {
			continue
		}
		inTree[u] = true
		if bestEdge[u] != None {
			mst = append(mst, bestEdge[u])
		}
		for i, end := g.offsets[u], g.offsets[u+1]; i < end; i++ {
			to := g.arcs[i].To
			if inTree[to] {
				continue
			}
			// Disabled arcs carry +Inf here, so they never improve best.
			if w := g.arcw[i]; w < best[to] {
				best[to] = w
				bestEdge[to] = g.arcs[i].ID
				q.push(w, to)
			}
		}
	}
	if len(mst) != g.n-1 && g.n > 1 {
		return nil, ErrDisconnected
	}
	return mst, nil
}

// MSTCost returns the total weight of a minimum spanning tree over the
// enabled edges, or ErrDisconnected.
func (g *Graph) MSTCost() (float64, error) {
	mst, err := g.PrimMST(0)
	if err != nil {
		return 0, err
	}
	return g.TotalWeight(mst), nil
}
