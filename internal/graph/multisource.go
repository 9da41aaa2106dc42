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

// DijkstraFrom computes shortest paths from a set of seeds: Dist[v] is the
// minimum over seeds of seed.Dist plus the seed-to-v path cost. Like
// DijkstraWithin, a non-nil stop set terminates the search once every stop
// node is settled (distances to stop nodes stay exact; everything unsettled
// reads unreachable); nil settles the whole graph. The returned SPT's
// Source is the first seed (None for an empty seed set); seed nodes carry
// ParentEdge None, so PathTo walks back to whichever seed the shortest
// path entered through. s may be nil (a pooled scratch is used).
func (g *Graph) DijkstraFrom(s *DijkstraScratch, seeds []Seed, stop []NodeID) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	_, t := g.multiSource(s, seeds, stop, nil, nil, false)
	return t
}

// DijkstraFromOverlay is DijkstraFrom under an overlay: every arc costs
// base + price and relaxations never enter blocked nodes. Seed nodes must
// not be blocked.
func (g *Graph) DijkstraFromOverlay(s *DijkstraScratch, seeds []Seed, stop []NodeID, ov *Overlay) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	_, t := g.multiSource(s, seeds, stop, ov, nil, false)
	return t
}

// AStarFromAnyOverlay runs the seeded search until the FIRST goal settles
// and returns it: with an admissible h (h is 0 on every goal by
// admissibility) the returned goal is one at minimum distance from the
// seed set, with ties broken deterministically by settlement order. The
// returned SPT is exact for the returned goal and every other settled
// node; unsettled nodes read unreachable. Returns (None, t) when no goal
// is reachable. h may be nil for an unguided (plain Dijkstra) search; ov
// may be nil for an unpriced one.
func (g *Graph) AStarFromAnyOverlay(s *DijkstraScratch, seeds []Seed, goals []NodeID, ov *Overlay, h func(NodeID) float64) (NodeID, *SPT) {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	return g.multiSource(s, seeds, goals, ov, h, true)
}

// multiSource is the one seeded-search implementation behind DijkstraFrom,
// DijkstraFromOverlay and AStarFromAnyOverlay: Dijkstra from a seeded
// frontier, with an optional overlay (priced arcs, blocked nodes), an
// optional heuristic (keys become Dist + h), and two stop disciplines —
// settle every stop node (any=false, the DijkstraWithin contract) or
// settle the first and report it (any=true). Control flow mirrors
// dijkstraWith so determinism carries over: ties break by arc order, and
// unsettled nodes are invalidated before returning so callers never read
// half-relaxed labels.
func (g *Graph) multiSource(s *DijkstraScratch, seeds []Seed, stop []NodeID, ov *Overlay, h func(NodeID) float64, any bool) (NodeID, *SPT) {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	src := None
	if len(seeds) > 0 {
		src = seeds[0].Node
	}
	t := s.acquireSPT(n, src)
	remaining := -1 // < 0: no early termination
	if stop != nil {
		remaining = 0
		for _, v := range stop {
			if s.stop[v] != ep {
				s.stop[v] = ep
				remaining++
			}
		}
	}
	var price []float64
	var blocked []uint64
	if ov != nil {
		price = ov.price
		blocked = ov.blocked
		g.markPinNeighbours(s, blocked, ep)
	}
	s.heap = s.heap[:0]
	q := &s.heap
	for _, sd := range seeds {
		if sd.Dist < t.Dist[sd.Node] {
			t.Dist[sd.Node] = sd.Dist
			key := sd.Dist
			if h != nil {
				key += h(sd.Node)
			}
			q.push(pqItem{key, sd.Node})
			s.HeapPushes++
		}
	}
	for len(*q) > 0 {
		u := q.pop().node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		t.settled = append(t.settled, u)
		if remaining >= 0 && s.stop[u] == ep {
			// Early exit: finish clears the tentative labels still in the
			// heap so they never escape.
			if any {
				return u, t.finish(*q, s.done, ep)
			}
			remaining--
			if remaining == 0 {
				return None, t.finish(*q, s.done, ep)
			}
		}
		du := t.Dist[u]
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
			if blocked != nil && blocked[to>>6]&(1<<(uint(to)&63)) != 0 {
				continue
			}
			nd := du + ws[k]
			if price != nil {
				nd += price[as[k].ID]
			}
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				key := nd
				if h != nil {
					key += h(to)
				}
				q.push(pqItem{key, to})
				s.HeapPushes++
			}
		}
	}
	return None, t.finish(nil, s.done, ep)
}
