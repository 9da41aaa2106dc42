package graph

import "fpgarouter/internal/faultpoint"

// Seed is one source of a multi-source shortest-path search, carrying the
// initial distance the search starts it at. A set of seeds at distance 0
// makes an existing tree fragment a free source region — the primitive the
// incremental pathfinder uses to reconnect orphaned pins to the surviving
// part of a ripped-up route. Non-zero initial distances express weighted
// source preferences (e.g. partially-paid entry points); they must be
// non-negative and finite.
type Seed struct {
	Node NodeID
	Dist float64
}

// DijkstraWithinBounded is DijkstraWithin guided toward the stop set by a
// coordinate lower bound: nodes are expanded in order of Dist + h where
// h = b.ToSet(stop), so expansion concentrates around the stop set
// instead of growing a full Dijkstra ball. Distances and paths for stop
// nodes are exact (parents may differ on exact ties, DESIGN.md §6);
// everything unsettled reads unreachable. With one stop node this is
// point-to-point A*. A nil stop set settles everything, a nil b degrades to
// DijkstraWithin, and a nil scratch uses the pool.
func (g *Graph) DijkstraWithinBounded(s *DijkstraScratch, src NodeID, stop []NodeID, b *CoordBounds) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	if b == nil {
		return g.dijkstraWith(s, src, stop)
	}
	t := s.takeSPT()
	g.search(s, t, query{src: src, stop: stop, h: b.ToSet(stop)})
	return t
}

// AStarFromAnyOverlay runs the seeded search until the FIRST goal settles
// and returns it: with an admissible h (h is 0 on every goal by
// admissibility) the returned goal is one at minimum distance from the
// seed set, with ties broken deterministically by settlement order. The
// returned SPT is exact for the returned goal and every other settled
// node; unsettled nodes read unreachable. Returns (None, t) when no goal
// is reachable. h may be the zero SetBound for an unguided (plain
// Dijkstra) search; ov may be nil for an unpriced one.
func (g *Graph) AStarFromAnyOverlay(s *DijkstraScratch, seeds []Seed, goals []NodeID, ov *Overlay, h SetBound) (NodeID, *SPT) {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	t := s.takeSPT()
	return g.search(s, t, query{src: None, seeds: seeds, stop: goals, ov: ov, h: h, first: true}), t
}

// query is one search of the priced kernel. It starts from src, which
// counts as a stop node as in settle's searches, or, when src is None,
// from seeds, which do not. A nil stop set settles everything; otherwise
// the search ends once all of it has settled, or with first set once any
// of it has. A non-nil ov prices every arc (base + price) and bars blocked
// nodes; a non-zero h, admissible and consistent for the priced weights,
// orders the heap by Dist + h.
type query struct {
	src   NodeID
	seeds []Seed
	stop  []NodeID
	first bool
	ov    *Overlay
	h     SetBound
}

// search is the priced kernel, the one loop behind every search with an
// overlay, a heuristic or seeds (settle is the plain one). It writes into
// t, whose buffers it resizes and reinitializes; the tree's Source is src
// or the first seed. It returns the stop node that ended a first search,
// else None. Control flow mirrors settle's, so determinism carries over:
// ties break by arc order, an arc sums as du + w + price, and every exit
// finishes t, so unsettled nodes read unreachable, never half-relaxed.
func (g *Graph) search(s *DijkstraScratch, t *SPT, q query) NodeID {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	ep := s.beginRun(g.n)
	seeds := q.seeds
	if q.src != None {
		seeds = []Seed{{Node: q.src}}
	}
	root := None
	if len(seeds) > 0 {
		root = seeds[0].Node
	}
	t.reset(g.n, root)
	remaining := s.markStop(q.stop, q.src, ep)
	var price []float64
	var blocked []uint64
	if q.ov != nil {
		price, blocked = q.ov.price, q.ov.blocked
		g.markPinNeighbours(s, blocked, ep)
	}
	h := q.h
	guided := h.b != nil
	s.heap.clear()
	heap := &s.heap
	for _, sd := range seeds {
		if sd.Dist < t.Dist[sd.Node] {
			t.Dist[sd.Node] = sd.Dist
			key := sd.Dist
			if guided {
				key += h.At(sd.Node)
			}
			heap.push(key, sd.Node)
			s.HeapPushes++
		}
	}
	for len(heap.keys) > 0 {
		u := heap.pop()
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		t.settled = append(t.settled, u)
		if remaining >= 0 && s.stop[u] == ep {
			if q.first {
				t.finish(*heap, s.done, ep)
				return u
			}
			remaining--
			if remaining == 0 {
				t.finish(*heap, s.done, ep)
				return None
			}
		}
		du := t.Dist[u]
		// The pin-tail skip follows DESIGN.md §6: a plain search reads the
		// enabled counts (see settle), an overlay search the unblocked-pin
		// marks.
		var hi int32
		if blocked != nil {
			hi = g.overlayScanEnd(s, u, ep)
		} else {
			hi = g.scanEnd(u)
		}
		lo := g.offsets[u]
		as := g.arcs[lo:hi]
		ws := g.arcw[lo:hi]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if blocked != nil {
				if blocked[to>>6]&(1<<(uint(to)&63)) != 0 {
					continue
				}
				nd += price[as[k].ID]
			}
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				key := nd
				if guided {
					key += h.At(to)
				}
				heap.push(key, to)
				s.HeapPushes++
			}
		}
	}
	t.finish(pq{}, s.done, ep)
	return None
}
