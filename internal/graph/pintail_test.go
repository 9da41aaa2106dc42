package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// pinGrid is a random instance with pin nodes: a w×h grid core whose edges
// cost at least their unit length, plus pins [Lo, n) attached after every
// core edge, each anchored at a core node (whose coordinates it shares) by
// one to three edges that cost at least their L1 reach. Bounds is therefore
// admissible and consistent, and each core node's arcs into pins form the
// trailing run SetPinBoundary describes, unless mixed adds a few core edges
// after the pins, or pins tap one another.
type pinGrid struct {
	*Graph
	Lo       NodeID
	PinEdges []EdgeID // every edge with a pin endpoint
	Bounds   *CoordBounds
}

// newPinGrid builds the instance drawn from seed, declaring the pin
// boundary when boundary is set: the same seed builds the same graph either
// way, so the two differ only in what the searches may skip.
func newPinGrid(seed int64, boundary bool) *pinGrid {
	rng := rand.New(rand.NewSource(seed))
	w, h := 3+rng.Intn(6), 3+rng.Intn(6)
	core := w * h
	pins := 1 + rng.Intn(2*core)
	mixed := rng.Intn(3) == 0
	n := core + pins
	p := &pinGrid{
		Graph:  New(n),
		Lo:     NodeID(core),
		Bounds: &CoordBounds{X: make([]float64, n), Y: make([]float64, n)},
	}
	for v := 0; v < core; v++ {
		p.Bounds.X[v], p.Bounds.Y[v] = float64(v%w), float64(v/w)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := NodeID(y*w + x)
			if x+1 < w {
				p.AddEdge(v, v+1, 1+3*rng.Float64())
			}
			if y+1 < h {
				p.AddEdge(v, v+NodeID(w), 1+3*rng.Float64())
			}
		}
	}
	for i := 0; i < pins; i++ {
		pin := NodeID(core + i)
		anchor := NodeID(rng.Intn(core))
		p.Bounds.X[pin], p.Bounds.Y[pin] = p.Bounds.X[anchor], p.Bounds.Y[anchor]
		to := []NodeID{anchor}
		for k := rng.Intn(3); k > 0; k-- {
			to = append(to, NodeID(rng.Intn(core)))
		}
		if mixed && i > 0 && rng.Intn(4) == 0 {
			to = append(to, NodeID(core+rng.Intn(i)))
		}
		for _, v := range to {
			u, w := pin, p.Bounds.LowerBound(pin, v)+0.5+rng.Float64()
			if rng.Intn(2) == 0 { // either endpoint order
				u, v = v, u
			}
			p.PinEdges = append(p.PinEdges, p.AddEdge(u, v, w))
		}
	}
	if mixed {
		for k := 1 + rng.Intn(core); k > 0; k-- {
			u, v := NodeID(rng.Intn(core)), NodeID(rng.Intn(core))
			if u != v {
				p.AddEdge(u, v, p.Bounds.LowerBound(u, v)+rng.Float64())
			}
		}
	}
	if boundary {
		p.SetPinBoundary(p.Lo)
	}
	p.Freeze()
	return p
}

// openPins mimics the router's BeginNet on g: every pin edge is disabled,
// then the edges of k random pins re-enabled, so most nodes' pin tails hold
// no enabled arc.
func (p *pinGrid) openPins(rng *rand.Rand, k int) {
	for _, id := range p.PinEdges {
		p.SetEnabled(id, false)
	}
	for ; k > 0; k-- {
		pin := p.Lo + NodeID(rng.Intn(p.NumNodes()-int(p.Lo)))
		for _, a := range p.Adj(pin) {
			p.SetEnabled(a.ID, true)
		}
	}
}

// checkPinTails verifies every node's recorded pin tail against a recount:
// the tail is the longest suffix of its arcs into pins, and its enabled
// count is the number of enabled arcs in it.
func checkPinTails(t *testing.T, g *Graph, lo NodeID) {
	t.Helper()
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.Adj(NodeID(u))
		start := len(adj)
		for start > 0 && adj[start-1].To >= lo {
			start--
		}
		on := 0
		for _, a := range adj[start:] {
			if g.Enabled(a.ID) {
				on++
			}
		}
		tail, gotOn := g.PinTail(NodeID(u))
		if len(tail) != len(adj)-start || gotOn != on {
			t.Fatalf("node %d: pin tail of %d arcs, %d enabled; recount %d arcs, %d enabled",
				u, len(tail), gotOn, len(adj)-start, on)
		}
	}
}

// The pin-tail bookkeeping follows every mutation path: SetEnabled flips
// (including repeats of the current state), a post-Freeze AddEdge into a
// pin, a boundary moved after Freeze, and Clone.
func TestPinTailCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := newPinGrid(4, true)
	checkPinTails(t, p.Graph, p.Lo)
	for round := 0; round < 20; round++ {
		p.openPins(rng, rng.Intn(4))
		for k := 0; k < 10; k++ {
			p.SetEnabled(p.PinEdges[rng.Intn(len(p.PinEdges))], rng.Intn(2) == 0)
		}
		checkPinTails(t, p.Graph, p.Lo)
	}
	c := p.Clone()
	p.SetEnabled(p.PinEdges[0], !p.Enabled(p.PinEdges[0]))
	checkPinTails(t, c, p.Lo)
	checkPinTails(t, p.Graph, p.Lo)
	p.AddEdge(0, p.Lo, 9)
	checkPinTails(t, p.Graph, p.Lo)
	p.SetPinBoundary(p.Lo + 1)
	checkPinTails(t, p.Graph, p.Lo+1)
	p.SetPinBoundary(NodeID(p.NumNodes()))
	for u := 0; u < p.NumNodes(); u++ {
		if tail, _ := p.PinTail(NodeID(u)); len(tail) != 0 {
			t.Fatalf("node %d keeps a pin tail of %d arcs with no boundary", u, len(tail))
		}
	}
}

// searchRun is one kernel's output: a tree (nil for BiDijkstraOverlay),
// the node AStarFromAnyOverlay returned, BiDijkstraOverlay's cost and path,
// and the work counters the run added.
type searchRun struct {
	tree    *SPT
	goal    NodeID
	cost    float64
	path    []EdgeID
	ok      bool
	settled int64
	pushes  int64
}

func (a searchRun) equal(b searchRun) bool {
	if (a.tree == nil) != (b.tree == nil) || a.tree != nil && !sptEqual(a.tree, b.tree) {
		return false
	}
	if a.goal != b.goal || a.cost != b.cost || a.ok != b.ok || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return a.settled == b.settled && a.pushes == b.pushes
}

// kernelCase runs one search kernel on g from a fixed query.
type kernelCase struct {
	name string
	run  func(g *Graph, s *DijkstraScratch) searchRun
}

// kernelCases returns every search loop applied to one query: the plain
// loop with and without a stop set, the priced kernel under each
// combination of seeds, overlay, heuristic and first-goal stop listed
// below, and BiDijkstraOverlay. The query is source src, goal for the point-to-point search, stop set stop
// (src and goal unblocked in ov), seeds for the multi-source searches, and
// the admissible bound b.
func kernelCases(src, goal NodeID, stop []NodeID, seeds []Seed, ov *Overlay, b *CoordBounds) []kernelCase {
	counted := func(s *DijkstraScratch, f func() searchRun) searchRun {
		settled, pushes := s.Settled, s.HeapPushes
		r := f()
		r.settled, r.pushes = s.Settled-settled, s.HeapPushes-pushes
		return r
	}
	// orphans are the stop nodes no seed starts on: the goals the
	// pathfinder's reconnection searches for, which never hold a seed.
	orphans := []NodeID{}
	for _, v := range stop {
		if !slices.ContainsFunc(seeds, func(sd Seed) bool { return sd.Node == v }) {
			orphans = append(orphans, v)
		}
	}
	tree := func(f func(g *Graph, s *DijkstraScratch) *SPT) func(*Graph, *DijkstraScratch) searchRun {
		return func(g *Graph, s *DijkstraScratch) searchRun {
			return counted(s, func() searchRun { return searchRun{tree: f(g, s), goal: None} })
		}
	}
	kernel := func(q query) func(*Graph, *DijkstraScratch) searchRun {
		return tree(func(g *Graph, s *DijkstraScratch) *SPT {
			t := s.takeSPT()
			g.search(s, t, q)
			return t
		})
	}
	return []kernelCase{
		{"dijkstra", tree(func(g *Graph, s *DijkstraScratch) *SPT { return g.dijkstraWith(s, src, nil) })},
		{"dijkstra-within", tree(func(g *Graph, s *DijkstraScratch) *SPT { return g.dijkstraWith(s, src, stop) })},
		{"goal-directed", kernel(query{src: src, stop: stop, h: b.ToSet(stop)})},
		{"dijkstra-from", kernel(query{src: None, seeds: seeds, stop: stop})},
		{"overlay", kernel(query{src: src, ov: ov})},
		{"overlay-within", kernel(query{src: src, stop: stop, ov: ov})},
		{"goal-directed-overlay", kernel(query{src: src, stop: stop, ov: ov, h: b.ToSet(stop)})},
		{"dijkstra-from-overlay", kernel(query{src: None, seeds: seeds, stop: stop, ov: ov})},
		{"astar-from-any-overlay", func(g *Graph, s *DijkstraScratch) searchRun {
			return counted(s, func() searchRun {
				v, t := g.AStarFromAnyOverlay(s, seeds, stop, ov, b.ToSet(stop))
				return searchRun{tree: t, goal: v}
			})
		}},
		{"astar-from-any-overlay-orphans", func(g *Graph, s *DijkstraScratch) searchRun {
			return counted(s, func() searchRun {
				v, t := g.AStarFromAnyOverlay(s, seeds, orphans, ov, b.ToSet(orphans))
				return searchRun{tree: t, goal: v}
			})
		}},
		{"bidijkstra-overlay", func(g *Graph, s *DijkstraScratch) searchRun {
			return counted(s, func() searchRun {
				c, path, ok := g.BiDijkstraOverlay(s, src, goal, ov)
				return searchRun{goal: None, cost: c, path: path, ok: ok}
			})
		}},
	}
}

// randomQuery draws an overlay and a query for kernelCases on p: random
// prices (some zero), every pin blocked but a few (the pathfinder's
// pattern) or none, a few blocked core nodes, and unblocked endpoints.
func (p *pinGrid) randomQuery(rng *rand.Rand) (src, goal NodeID, stop []NodeID, seeds []Seed, ov *Overlay) {
	n := p.NumNodes()
	ov = NewOverlay(p.Graph)
	for id := range ov.Prices() {
		if rng.Intn(3) > 0 {
			ov.Prices()[id] = 2 * rng.Float64()
		}
	}
	if rng.Intn(4) > 0 {
		for v := p.Lo; v < NodeID(n); v++ {
			ov.Block(v)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		ov.Block(NodeID(rng.Intn(int(p.Lo))))
	}
	stop = RandomNet(rng, p.Graph, 1+rng.Intn(n/3+1))
	src, goal = stop[0], stop[len(stop)-1]
	for _, v := range stop {
		if v >= p.Lo || rng.Intn(3) == 0 {
			ov.Unblock(v)
		}
	}
	ov.Unblock(src)
	ov.Unblock(goal)
	seeds = []Seed{{Node: src}}
	for _, v := range stop[1:] {
		if !ov.Blocked(v) && rng.Intn(4) == 0 {
			seeds = append(seeds, Seed{Node: v, Dist: rng.Float64()})
		}
	}
	return src, goal, stop, seeds, ov
}

// Property: every search kernel returns bit-identical trees, paths and
// work counters on a graph with a declared pin boundary and on the same
// graph built without it, under random prices, blocked sets, stop sets and
// BeginNet-style tap enables: skipping pin tails changes only the arcs
// scanned.
func TestQuickKernelPinTailParity(t *testing.T) {
	f := func(seed int64) bool {
		with, without := newPinGrid(seed, true), newPinGrid(seed, false)
		rng := rand.New(rand.NewSource(seed))
		sw, so := NewDijkstraScratch(), NewDijkstraScratch()
		for round := 0; round < 4; round++ {
			if round > 0 {
				k := rng.Intn(4)
				state := rng.Int63()
				with.openPins(rand.New(rand.NewSource(state)), k)
				without.openPins(rand.New(rand.NewSource(state)), k)
			}
			src, goal, stop, seeds, ov := with.randomQuery(rng)
			for _, kc := range kernelCases(src, goal, stop, seeds, ov, with.Bounds) {
				a, b := kc.run(with.Graph, sw), kc.run(without.Graph, so)
				if !a.equal(b) {
					t.Logf("seed %d round %d: %s differs with the pin boundary declared", seed, round, kc.name)
					return false
				}
				if a.tree != nil {
					sw.RecycleSPT(a.tree)
					so.RecycleSPT(b.tree)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
