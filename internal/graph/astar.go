package graph

import "fpgarouter/internal/faultpoint"

// This file adds the goal-directed stop-set search: DijkstraWithin guided
// toward its stop set by an admissible, consistent lower bound. It returns
// exact distances for the stop nodes and differs from plain Dijkstra only
// in which additional nodes get settled (fewer) and, on exact
// floating-point ties, in which of several equal-cost parents is recorded.
// See DESIGN.md §6 for the admissibility argument and the tie-break
// caveat. The overlay variants the pathfinder searches with live in
// overlay.go and multisource.go.

// DijkstraWithinBounded is DijkstraWithin guided toward the stop set by a
// coordinate lower bound: nodes are expanded in order of Dist + h where
// h(v) = b.ToSet(stop)(v), so expansion concentrates around the stop set
// instead of growing a full Dijkstra ball. Distances and paths for stop
// nodes are exact; everything unsettled reads unreachable. With one stop
// node h is the L1 distance to it, which makes this point-to-point A*. A
// nil b degrades to DijkstraWithin. A nil scratch uses the pool.
func (g *Graph) DijkstraWithinBounded(s *DijkstraScratch, src NodeID, stop []NodeID, b *CoordBounds) *SPT {
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
		t.settled = append(t.settled, u)
		if s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				return t.finish(*q, s.done, ep)
			}
		}
		du := t.Dist[u]
		// As in dijkstraWith, no settled check per arc: with a consistent h
		// a settled node's distance is final, so the improvement test
		// rejects its arcs on its own; and a pin tail with no enabled arc
		// is not scanned.
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
				q.push(pqItem{nd + h(to), to})
				s.HeapPushes++
			}
		}
	}
	// Heap exhausted before the stop set settled: some stop nodes are
	// unreachable. Every node ever relaxed was settled (lazy deletion left
	// nothing pending), so settled distances are final and the rest are
	// already Inf.
	return t.finish(nil, s.done, ep)
}
