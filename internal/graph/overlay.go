package graph

import (
	"math/bits"

	"fpgarouter/internal/faultpoint"
)

// Overlay layers routing state over a frozen graph without touching it: a
// per-edge additive price and a per-node blocked bitset. A search run under
// an overlay sees edge id with effective weight Weight(id) + Price(id) and
// never relaxes into a blocked node. Because the graph itself stays
// read-only, any number of goroutines may search concurrently, each under
// its own overlay — this is how the net-parallel negotiated-congestion
// router (internal/pathfinder) routes every net of an iteration against the
// same frozen CSR arrays, and how internal/congest accumulates pre-routing
// congestion without mutating the shared grid mid-sweep.
//
// Contract: prices must be non-negative and finite wherever searches run
// (disabled edges already carry +Inf in the base weights, which any finite
// price preserves), and an overlay must be quiescent while a search or an
// SPTCache using it is live. Non-negative prices also preserve the
// admissibility of coordinate lower bounds (see CoordBounds): effective
// weights only grow from the geometric base lengths, so goal-directed
// searches stay exact under every pricing state.
type Overlay struct {
	price   []float64
	blocked []uint64
}

// NewOverlay returns a zero overlay (no prices, nothing blocked) sized for
// g's current node and edge counts.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		price:   make([]float64, g.NumEdges()),
		blocked: make([]uint64, (g.NumNodes()+63)/64),
	}
}

// Prices exposes the overlay's per-edge price slice, indexed by EdgeID. The
// slice is live — writes through it are seen by subsequent searches — so
// bulk loads (copy from a shared price array) go through here.
func (o *Overlay) Prices() []float64 { return o.price }

// Price returns the additive price of edge id.
func (o *Overlay) Price(id EdgeID) float64 { return o.price[id] }

// AddPrice adds d to edge id's price.
func (o *Overlay) AddPrice(id EdgeID, d float64) { o.price[id] += d }

// Block marks node v as blocked: searches will not relax into it.
func (o *Overlay) Block(v NodeID) { o.blocked[v>>6] |= 1 << (uint(v) & 63) }

// Unblock clears v's blocked mark.
func (o *Overlay) Unblock(v NodeID) { o.blocked[v>>6] &^= 1 << (uint(v) & 63) }

// Blocked reports whether v is blocked.
func (o *Overlay) Blocked(v NodeID) bool {
	return o.blocked[v>>6]&(1<<(uint(v)&63)) != 0
}

// BlockedWords exposes the blocked bitset as 64-bit words (node v is bit
// v&63 of word v>>6), for callers that maintain a reusable template.
func (o *Overlay) BlockedWords() []uint64 { return o.blocked }

// LoadBlocked overwrites the blocked bitset from a template of the same
// word length (the pathfinder's all-pins-blocked template, per net).
func (o *Overlay) LoadBlocked(words []uint64) { copy(o.blocked, words) }

// dijkstraOverlayWith is dijkstraWith under an overlay: identical control
// flow (early stop once the stop set is settled, deterministic tie-breaks by
// arc order), with each arc's weight read as base + price and relaxations
// into blocked nodes skipped. The source must not be blocked.
func (g *Graph) dijkstraOverlayWith(s *DijkstraScratch, t *SPT, src NodeID, stop []NodeID, ov *Overlay) *SPT {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	t.reset(n, src)
	remaining := -1
	if stop != nil {
		remaining = 0
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
	}
	price := ov.price
	blocked := ov.blocked
	g.markPinNeighbours(s, blocked, ep)
	t.Dist[src] = 0
	s.heap = s.heap[:0]
	q := &s.heap
	q.push(pqItem{0, src})
	s.HeapPushes++
	for len(*q) > 0 {
		it := q.pop()
		u := it.node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		t.settled = append(t.settled, u)
		if remaining >= 0 && s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				return t.finish(*q, s.done, ep)
			}
		}
		du := t.Dist[u]
		lo, hi := g.offsets[u], g.overlayScanEnd(s, u, ep)
		as := g.arcs[lo:hi]
		ws := g.arcw[lo:hi]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			if blocked[to>>6]&(1<<(uint(to)&63)) != 0 {
				continue
			}
			nd := du + ws[k] + price[as[k].ID]
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				q.push(pqItem{nd, to})
				s.HeapPushes++
			}
		}
	}
	return t.finish(nil, s.done, ep)
}

// markPinNeighbours opens an overlay search's pin tails (see
// SetPinBoundary): it stamps ep into s.pinNbr for every node with an arc
// into an unblocked pin. Every other node's tail arcs all lead into
// blocked pins, so overlayScanEnd leaves its tail unscanned. The walk
// reads the pin range's blocked words and the arcs of each unblocked pin:
// O(pins/64) plus the unblocked pins' degrees, a few hundred steps per
// search for the pathfinder, which blocks every pin but the net's own.
func (g *Graph) markPinNeighbours(s *DijkstraScratch, blocked []uint64, ep uint32) {
	lo := int(g.pinLo)
	if lo >= g.n {
		return
	}
	for w := lo >> 6; w < len(blocked); w++ {
		open := ^blocked[w]
		if w == lo>>6 {
			open &= ^uint64(0) << (uint(lo) & 63)
		}
		for ; open != 0; open &= open - 1 {
			v := w<<6 + bits.TrailingZeros64(open)
			if v >= g.n {
				break
			}
			for _, a := range g.arcs[g.offsets[v]:g.offsets[v+1]] {
				s.pinNbr[a.To] = ep
			}
		}
	}
}

// overlayScanEnd returns the end of the arcs an overlay search scans out of
// u: the whole run, or the run minus its pin tail when markPinNeighbours
// found no unblocked pin beside u.
func (g *Graph) overlayScanEnd(s *DijkstraScratch, u NodeID, ep uint32) int32 {
	if s.pinNbr[u] != ep {
		return g.tails[u].start
	}
	return g.offsets[u+1]
}

// goalDirectedOverlay is goalDirected under an overlay: A* toward the stop
// set with heap keys Dist + h over priced effective weights. h must be
// admissible and consistent for base + price (non-negative prices keep any
// base-admissible bound valid, since effective weights only grow).
func (g *Graph) goalDirectedOverlay(s *DijkstraScratch, t *SPT, src NodeID, stop []NodeID, ov *Overlay, h func(NodeID) float64) *SPT {
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
	price := ov.price
	blocked := ov.blocked
	g.markPinNeighbours(s, blocked, ep)
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
		lo, hi := g.offsets[u], g.overlayScanEnd(s, u, ep)
		as := g.arcs[lo:hi]
		ws := g.arcw[lo:hi]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			if blocked[to>>6]&(1<<(uint(to)&63)) != 0 {
				continue
			}
			nd := du + ws[k] + price[as[k].ID]
			if nd < t.Dist[to] {
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				q.push(pqItem{nd + h(to), to})
				s.HeapPushes++
			}
		}
	}
	return t.finish(nil, s.done, ep)
}

// BiDijkstraOverlay computes one shortest path between src and goal under
// an overlay — priced effective weights, never entering blocked nodes — by
// growing Dijkstra balls from both ends simultaneously, settling roughly
// half the nodes a one-sided search would. It returns the path's cost and
// edge IDs (src→goal order), or ok = false if the endpoints are
// disconnected. For src == goal it returns an empty path. Neither endpoint
// may be blocked. A nil scratch uses the pool.
//
// The distance is exact but its floating-point rounding can differ in the
// last bits from a forward-only sum (the two half-path sums are folded in
// a different order), and the returned path can differ from Dijkstra's
// among equal-cost alternatives; callers needing bit-reproducibility
// against forward search must use Dijkstra.
func (g *Graph) BiDijkstraOverlay(s *DijkstraScratch, src, goal NodeID, ov *Overlay) (float64, []EdgeID, bool) {
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
	price := ov.price
	blocked := ov.blocked
	g.markPinNeighbours(s, blocked, ep)
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

	expand := func(q *pq, done []uint32, mine, other *SPT) {
		u := q.pop().node
		if done[u] == ep {
			return
		}
		done[u] = ep
		s.Settled++
		mine.settled = append(mine.settled, u)
		du := mine.Dist[u]
		if c := du + other.Dist[u]; c < best {
			best = c
			meet = u
		}
		lo, hi := g.offsets[u], g.overlayScanEnd(s, u, ep)
		as := g.arcs[lo:hi]
		ws := g.arcw[lo:hi]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			if blocked[to>>6]&(1<<(uint(to)&63)) != 0 {
				continue
			}
			nd := du + ws[k] + price[as[k].ID]
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
		if topF+topB >= best {
			break
		}
		if topF <= topB {
			expand(qf, s.done, tf, tb)
		} else {
			expand(qb, s.doneB, tb, tf)
		}
	}
	var path []EdgeID
	if meet != None {
		path = tf.PathTo(meet)
		back := tb.PathTo(meet)
		for i := len(back) - 1; i >= 0; i-- {
			path = append(path, back[i])
		}
	}
	// Both trees go back to the free list on return; finishing them lets
	// the next search reset only their settled nodes. meet may be
	// unsettled, so this waits until its paths are read.
	tf.finish(*qf, s.done, ep)
	tb.finish(*qb, s.doneB, ep)
	if meet == None {
		return inf, nil, false
	}
	return best, path, true
}
