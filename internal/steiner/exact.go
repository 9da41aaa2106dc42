package steiner

import (
	"errors"

	"fpgarouter/internal/graph"
)

// ErrTooLarge is returned by Exact for nets whose exponential state space
// would be impractical; the exact solver is a test / normalization oracle
// for small instances only.
var ErrTooLarge = errors.New("steiner: net too large for exact solver")

// MaxExactTerminals bounds the net size accepted by Exact (the
// Dreyfus–Wagner dynamic program is exponential in the terminal count).
const MaxExactTerminals = 12

// dwChoice records how a dp state was reached, for tree reconstruction.
type dwChoice struct {
	sub  int32        // merge: the submask combined at this node (0 = none)
	pred graph.NodeID // walk: predecessor node (None = none)
	edge graph.EdgeID // walk: edge from pred
}

// Exact computes an optimal graph Steiner minimal tree for net using the
// Dreyfus–Wagner dynamic program (O(3^k·V + 2^k·(E+V log V))). It returns
// the optimal tree over the enabled edges of the cache's graph.
//
// This is the GMST oracle used by tests to verify the heuristics'
// performance bounds (KMB ≤ 2·OPT, ZEL/IZEL ≤ 11/6·OPT) and by the
// experiment harnesses to normalize small-instance results.
func Exact(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	if err := CheckNet(cache, net); err != nil {
		return graph.Tree{}, err
	}
	if len(net) > MaxExactTerminals {
		return graph.Tree{}, ErrTooLarge
	}
	g := cache.Graph()
	nV := g.NumNodes()
	if len(net) == 1 {
		return graph.Tree{Edges: []graph.EdgeID{}}, nil
	}

	root := net[0]
	terms := net[1:] // terminals carried in the mask
	k := len(terms)
	full := (1 << k) - 1

	dp := make([][]float64, full+1)
	ch := make([][]dwChoice, full+1)
	for m := 1; m <= full; m++ {
		dp[m] = make([]float64, nV)
		ch[m] = make([]dwChoice, nV)
		for v := range dp[m] {
			dp[m][v] = graph.Inf()
			ch[m][v] = dwChoice{sub: 0, pred: graph.None, edge: graph.None}
		}
	}

	// Base cases: a single terminal t_i connected to v by a shortest path.
	// We seed dp[1<<i][t_i] = 0 and let the per-mask Dijkstra relaxation
	// below extend it to every v, which also records walk predecessors so
	// reconstruction yields actual edges.
	for i := 0; i < k; i++ {
		dp[1<<i][terms[i]] = 0
	}

	for mask := 1; mask <= full; mask++ {
		// Merge step: combine two subtrees at a common node v.
		if mask&(mask-1) != 0 { // skip singleton masks
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				if sub < rest {
					continue // each unordered split once
				}
				dsub, drest := dp[sub], dp[rest]
				dm := dp[mask]
				for v := 0; v < nV; v++ {
					if dsub[v] == graph.Inf() || drest[v] == graph.Inf() {
						continue
					}
					if c := dsub[v] + drest[v]; c < dm[v] {
						dm[v] = c
						ch[mask][v] = dwChoice{sub: int32(sub), pred: graph.None, edge: graph.None}
					}
				}
			}
		}
		// Relax step: multi-source Dijkstra over graph edges with dp[mask]
		// as initial distances ("grow the tree along a path").
		relaxDW(g, dp[mask], ch[mask])
	}

	if dp[full][root] == graph.Inf() {
		return graph.Tree{}, ErrNoRoute
	}

	// Reconstruct edges by unwinding (mask, v) states.
	edgeSet := make(map[graph.EdgeID]bool)
	type state struct {
		mask int
		v    graph.NodeID
	}
	stack := []state{{full, root}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := ch[s.mask][s.v]
		switch {
		case c.pred != graph.None:
			edgeSet[c.edge] = true
			stack = append(stack, state{s.mask, c.pred})
		case c.sub != 0:
			stack = append(stack, state{int(c.sub), s.v}, state{s.mask ^ int(c.sub), s.v})
		default:
			// Base state: v is the mask's lone terminal; nothing to add.
		}
	}
	edges := make([]graph.EdgeID, 0, len(edgeSet))
	for id := range edgeSet {
		edges = append(edges, id)
	}
	t := graph.PruneTree(g, cache.Scratch(), edges, net)
	return t, nil
}

// ExactCost returns only the optimal Steiner tree cost.
func ExactCost(cache *graph.SPTCache, net []graph.NodeID) (float64, error) {
	t, err := Exact(cache, net)
	if err != nil {
		return 0, err
	}
	return t.Cost, nil
}

// relaxDW performs the Dijkstra-flavoured relaxation of Dreyfus–Wagner:
// dist[v] = min(dist[v], min over enabled edges (u,v) of dist[u] + w),
// recording walk predecessors in ch for reconstruction.
func relaxDW(g *graph.Graph, dist []float64, ch []dwChoice) {
	q := make(pqDW, 0, len(dist)/4+1)
	for v, d := range dist {
		if d != graph.Inf() {
			q.push(pqDWItem{d, graph.NodeID(v)})
		}
	}
	done := make([]bool, len(dist))
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] || it.dist > dist[u] {
			continue
		}
		done[u] = true
		for a, w := range g.EnabledArcs(u) {
			if done[a.To] {
				continue
			}
			if nd := dist[u] + w; nd < dist[a.To] {
				dist[a.To] = nd
				ch[a.To] = dwChoice{sub: 0, pred: u, edge: a.ID}
				q.push(pqDWItem{nd, a.To})
			}
		}
	}
}

type pqDWItem struct {
	dist float64
	node graph.NodeID
}

type pqDW []pqDWItem

func (q *pqDW) push(it pqDWItem) {
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

func (q *pqDW) pop() pqDWItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && h[l].dist < h[s].dist {
			s = l
		}
		if r < len(h) && h[r].dist < h[s].dist {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	*q = h
	return top
}
