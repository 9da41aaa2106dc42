package graph

import "fpgarouter/internal/faultpoint"

// This file adds goal-directed shortest-path searches on top of the CSR
// substrate: point-to-point A* under an admissible consistent lower bound,
// a goal-set-guided variant of DijkstraWithin, and bidirectional Dijkstra
// for 2-pin connections. All three return exact distances for their goals;
// they differ from plain Dijkstra only in which additional nodes get
// settled (fewer) and, on exact floating-point ties, in which of several
// equal-cost parents is recorded. See DESIGN.md §6 for the admissibility
// argument and the tie-break caveat.

// AStar computes a shortest path from src to goal, expanding nodes in
// order of Dist + b.LowerBound(·, goal). b must be admissible and
// consistent (see Bounds); a nil b degrades to DijkstraWithin(src, {goal}).
// A nil scratch uses the process-wide pool for the duration of the call.
//
// The returned SPT is exact for goal and for every settled node; all other
// nodes read as unreachable. With a consistent bound the goal's distance is
// bit-identical to Dijkstra's (the relaxation arithmetic is unchanged);
// the path may differ from Dijkstra's among equal-cost alternatives.
func (g *Graph) AStar(s *DijkstraScratch, src, goal NodeID, b Bounds) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	if b == nil {
		return g.dijkstraWith(s, src, []NodeID{goal})
	}
	h := func(v NodeID) float64 { return b.LowerBound(v, goal) }
	return g.goalDirected(s, s.takeSPT(), src, []NodeID{goal}, h)
}

// DijkstraWithinBounded is DijkstraWithin guided toward the stop set by an
// admissible consistent lower bound: nodes are expanded in order of
// Dist + h where h(v) = b.ToSet(stop)(v), so expansion concentrates around
// the stop set instead of growing a full Dijkstra ball. Distances and
// paths for stop nodes are exact; everything unsettled reads unreachable.
// A nil b degrades to DijkstraWithin. A nil scratch uses the pool.
func (g *Graph) DijkstraWithinBounded(s *DijkstraScratch, src NodeID, stop []NodeID, b Bounds) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	if b == nil {
		return g.dijkstraWith(s, src, stop)
	}
	return g.goalDirected(s, s.takeSPT(), src, stop, b.ToSet(stop))
}

// goalDirected is the shared A* core: heap keys are Dist + h, settlement
// stops once every node of stop is settled, and unsettled state is
// invalidated exactly like dijkstraWith's early exit. h must be admissible
// and consistent so that each settled node's distance is final.
func (g *Graph) goalDirected(s *DijkstraScratch, t *SPT, src NodeID, stop []NodeID, h func(NodeID) float64) *SPT {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	t.reset(n, src)
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
	t.Dist[src] = 0
	s.heap = s.heap[:0]
	q := &s.heap
	q.push(pqItem{h(src), src})
	s.HeapPushes++
	for len(*q) > 0 {
		u := q.pop().node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		if s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				for v := 0; v < n; v++ {
					if s.done[v] != ep {
						t.Dist[v] = inf
						t.ParentEdge[v] = None
						t.ParentNode[v] = None
					}
				}
				return t
			}
		}
		du := t.Dist[u]
		// As in dijkstraWith, no settled check per arc: with a consistent h
		// a settled node's distance is final, so the improvement test
		// rejects its arcs on its own.
		as := g.arcs[g.offsets[u]:g.offsets[u+1]]
		ws := g.arcw[g.offsets[u]:g.offsets[u+1]]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				q.push(pqItem{nd + h(to), to})
				s.HeapPushes++
			}
		}
	}
	// Heap exhausted before the stop set settled: some stop nodes are
	// unreachable. Every node ever relaxed was settled (lazy deletion left
	// nothing pending), so settled distances are final and the rest are
	// already Inf.
	return t
}

// BiDijkstra computes one shortest path between src and goal by growing
// Dijkstra balls from both ends simultaneously, settling roughly half the
// nodes a one-sided search would. It returns the path's cost and edge IDs
// (src→goal order), or ok = false if the endpoints are disconnected. For
// src == goal it returns an empty path. A nil scratch uses the pool.
//
// The distance is exact but its floating-point rounding can differ in the
// last bits from a forward-only sum (the two half-path sums are folded in
// a different order), and the returned path can differ from Dijkstra's
// among equal-cost alternatives — the same contract as AStar, only looser
// on the cost bits; callers needing bit-reproducibility against forward
// search must use Dijkstra or AStar.
func (g *Graph) BiDijkstra(s *DijkstraScratch, src, goal NodeID) (float64, []EdgeID, bool) {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	if src == goal {
		return 0, []EdgeID{}, true
	}
	n := g.n
	ep := s.beginRun(n)
	tf := s.acquireSPT(n, src)
	tb := s.acquireSPT(n, goal)
	defer func() {
		s.RecycleSPT(tb)
		s.RecycleSPT(tf)
	}()
	tf.Dist[src] = 0
	tb.Dist[goal] = 0
	s.heap = s.heap[:0]
	s.heapB = s.heapB[:0]
	qf, qb := &s.heap, &s.heapB
	qf.push(pqItem{0, src})
	qb.push(pqItem{0, goal})
	s.HeapPushes += 2
	best := inf
	meet := None

	// expand settles one node of the chosen side, relaxing its arcs and
	// tracking the best src…u…goal cost seen through any node with finite
	// labels on both sides (tentative labels are fine: each corresponds to
	// a real path whose parent chain is intact).
	expand := func(q *pq, done []uint32, mine, other *SPT) {
		u := q.pop().node
		if done[u] == ep {
			return
		}
		done[u] = ep
		s.Settled++
		du := mine.Dist[u]
		if c := du + other.Dist[u]; c < best {
			best = c
			meet = u
		}
		as := g.arcs[g.offsets[u]:g.offsets[u+1]]
		ws := g.arcw[g.offsets[u]:g.offsets[u+1]]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if nd < mine.Dist[to] {
				mine.Dist[to] = nd
				mine.ParentEdge[to] = as[k].ID
				mine.ParentNode[to] = u
				q.push(pqItem{nd, to})
				s.HeapPushes++
				if c := nd + other.Dist[to]; c < best {
					best = c
					meet = to
				}
			}
		}
	}

	for len(*qf) > 0 || len(*qb) > 0 {
		topF, topB := inf, inf
		if len(*qf) > 0 {
			topF = (*qf)[0].dist
		}
		if len(*qb) > 0 {
			topB = (*qb)[0].dist
		}
		// Nicholson's stopping rule: no undiscovered route can beat best
		// once the frontiers' combined radius reaches it.
		if topF+topB >= best {
			break
		}
		// Expand the shallower frontier; ties go forward (deterministic).
		if topF <= topB {
			expand(qf, s.done, tf, tb)
		} else {
			expand(qb, s.doneB, tb, tf)
		}
	}
	if meet == None {
		return inf, nil, false
	}
	path := tf.PathTo(meet)
	back := tb.PathTo(meet) // goal→meet order
	for i := len(back) - 1; i >= 0; i-- {
		path = append(path, back[i])
	}
	return best, path, true
}
