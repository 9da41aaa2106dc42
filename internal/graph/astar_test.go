package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridBounds builds the exact CoordBounds for a GridGraph: node (x, y) at
// coordinate (x, y). With unit weights the Manhattan bound is tight; with
// weights ≥ 1 it stays admissible and consistent.
func gridBounds(g *GridGraph) *CoordBounds {
	b := &CoordBounds{X: make([]float64, g.NumNodes()), Y: make([]float64, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		x, y := g.Coords(NodeID(v))
		b.X[v], b.Y[v] = float64(x), float64(y)
	}
	return b
}

// Property: on grids with random weights ≥ 1, random disables and random
// endpoints, point-to-point A* (DijkstraWithinBounded with a one-node stop
// set) finds the goal at exactly Dijkstra's distance, its path costs that
// distance, and it settles no more nodes.
func TestQuickAStarExactOnGrids(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(10), 3+rng.Intn(10)
		g := NewGrid(w, h, 1)
		b := gridBounds(g)
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(3) == 0 {
				g.SetWeight(EdgeID(i), 1+rng.Float64()*4)
			}
			if rng.Intn(8) == 0 {
				g.SetEnabled(EdgeID(i), false)
			}
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		goal := NodeID(rng.Intn(g.NumNodes()))
		s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
		ref := g.Graph.dijkstraWith(s1, src, []NodeID{goal})
		ast := g.Graph.DijkstraWithinBounded(s2, src, []NodeID{goal}, b)
		if ast.Dist[goal] != ref.Dist[goal] {
			t.Logf("seed %d: A* dist %v, dijkstra %v", seed, ast.Dist[goal], ref.Dist[goal])
			return false
		}
		if ast.Reachable(goal) {
			p := ast.PathTo(goal)
			if math.Abs(g.TotalWeight(p)-ast.Dist[goal]) > 1e-9 {
				t.Logf("seed %d: path cost %v vs dist %v", seed, g.TotalWeight(p), ast.Dist[goal])
				return false
			}
		}
		if s2.Settled > s1.Settled {
			t.Logf("seed %d: A* settled %d > dijkstra %d", seed, s2.Settled, s1.Settled)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: DijkstraWithinBounded reports exactly DijkstraWithin's
// distances on every stop node — including heavily disabled graphs where
// parts of the stop set are unreachable — and unsettled nodes read
// unreachable, never stale.
func TestQuickDijkstraWithinBoundedExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(8), 3+rng.Intn(8)
		g := NewGrid(w, h, 1)
		b := gridBounds(g)
		// Disable aggressively: about half the edges, fragmenting the grid.
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(2) == 0 {
				g.SetEnabled(EdgeID(i), false)
			}
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		stop := RandomNet(rng, g.Graph, 1+rng.Intn(g.NumNodes()/2))
		ref := g.Graph.DijkstraWithin(src, stop)
		got := g.Graph.DijkstraWithinBounded(nil, src, stop, b)
		for _, v := range stop {
			if math.IsInf(ref.Dist[v], 1) != math.IsInf(got.Dist[v], 1) {
				t.Logf("seed %d: node %d reachability differs", seed, v)
				return false
			}
			if got.Dist[v] != ref.Dist[v] {
				t.Logf("seed %d: node %d dist %v vs %v", seed, v, got.Dist[v], ref.Dist[v])
				return false
			}
			if got.Reachable(v) {
				p := got.PathTo(v)
				if math.Abs(g.TotalWeight(p)-got.Dist[v]) > 1e-9 {
					return false
				}
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !got.Reachable(NodeID(v)) && !math.IsInf(got.Dist[v], 1) {
				t.Logf("seed %d: unsettled node %d has finite dist %v", seed, v, got.Dist[v])
				return false
			}
		}
		// A nil stop set settles everything, as DijkstraWithin's does: the
		// bound has no goal to steer toward, so every distance is exact.
		ref, got = g.Graph.DijkstraWithin(src, nil), g.Graph.DijkstraWithinBounded(nil, src, nil, b)
		for v := range ref.Dist {
			if got.Dist[v] != ref.Dist[v] {
				t.Logf("seed %d: nil stop set: node %d dist %v vs %v", seed, v, got.Dist[v], ref.Dist[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BiDijkstraOverlay's cost is within 1e-9 of the forward priced
// kernel's (the two half-sums fold in a different order), reachability
// agrees, and the returned path is a src→goal walk of that effective cost
// that never enters a blocked node. Both under a zero overlay and under
// random prices and blocked nodes, the pathfinder's routing state, on
// graphs with disabled edges.
func TestQuickBiDijkstraExact(t *testing.T) {
	for _, priced := range []bool{false, true} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(50)
			g := RandomConnected(rng, n, n*3, 8)
			for i := 0; i < g.NumEdges()/3; i++ {
				g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
			}
			ov := NewOverlay(g)
			perm := rng.Perm(n)
			src, goal := NodeID(perm[0]), NodeID(perm[1])
			if priced {
				for id := 0; id < g.NumEdges(); id++ {
					ov.AddPrice(EdgeID(id), rng.Float64()*3)
				}
				for _, v := range perm[2 : 2+rng.Intn(n/3+1)] {
					ov.Block(NodeID(v))
				}
			}
			ref := g.dijkstraFrom([]Seed{{Node: src}}, []NodeID{goal}, ov)
			cost, path, ok := g.BiDijkstraOverlay(nil, src, goal, ov)
			if ok != ref.Reachable(goal) {
				t.Logf("priced=%v seed %d: ok=%v but reachable=%v", priced, seed, ok, ref.Reachable(goal))
				return false
			}
			if !ok {
				return true
			}
			if math.Abs(cost-ref.Dist[goal]) > 1e-9 {
				t.Logf("priced=%v seed %d: cost %v vs %v", priced, seed, cost, ref.Dist[goal])
				return false
			}
			at, sum := src, 0.0
			for _, id := range path {
				e := g.Edge(id)
				switch at {
				case e.U:
					at = e.V
				case e.V:
					at = e.U
				default:
					t.Logf("priced=%v seed %d: path breaks at node %d edge %d", priced, seed, at, id)
					return false
				}
				if ov.Blocked(at) {
					t.Logf("priced=%v seed %d: path enters blocked node %d", priced, seed, at)
					return false
				}
				sum += g.Weight(id) + ov.Price(id)
			}
			if at != goal || math.Abs(sum-cost) > 1e-9 {
				t.Logf("priced=%v seed %d: path ends at %d (want %d), costs %v (want %v)", priced, seed, at, goal, sum, cost)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("priced=%v: %v", priced, err)
		}
	}
}

func TestBiDijkstraTrivialAndDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	ov := NewOverlay(g)
	// src == goal: empty path, zero cost.
	if c, p, ok := g.BiDijkstraOverlay(nil, 2, 2, ov); !ok || c != 0 || len(p) != 0 {
		t.Fatalf("self route: %v %v %v", c, p, ok)
	}
	// 0 and 3 are disconnected.
	if _, _, ok := g.BiDijkstraOverlay(nil, 0, 3, ov); ok {
		t.Fatal("disconnected pair reported routable")
	}
}

// A* under a nontrivial bound must settle strictly fewer nodes than plain
// Dijkstra on an open grid corner-to-corner run — the point of the whole
// exercise. (Strictness holds here because the goal is the farthest node:
// Dijkstra settles everything, A* only the diagonal band.)
func TestAStarExpandsFewerOnOpenGrid(t *testing.T) {
	g := NewGrid(20, 20, 1)
	b := gridBounds(g)
	src, goal := g.Node(0, 0), g.Node(19, 19)
	s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
	ref := g.Graph.dijkstraWith(s1, src, []NodeID{goal})
	ast := g.Graph.DijkstraWithinBounded(s2, src, []NodeID{goal}, b)
	if ast.Dist[goal] != ref.Dist[goal] {
		t.Fatalf("dist %v vs %v", ast.Dist[goal], ref.Dist[goal])
	}
	if s2.Settled >= s1.Settled {
		t.Fatalf("A* settled %d, dijkstra %d — no pruning", s2.Settled, s1.Settled)
	}
}

// ToSet on a multi-goal set must lower-bound the distance to the nearest
// goal.
func TestQuickToSetAdmissible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(8), 3+rng.Intn(8)
		g := NewGrid(w, h, 1)
		goals := RandomNet(rng, g.Graph, 1+rng.Intn(5))
		lb := gridBounds(g).ToSet(goals)
		for v := 0; v < g.NumNodes(); v++ {
			best := math.Inf(1)
			spt := g.Dijkstra(NodeID(v))
			for _, gl := range goals {
				if spt.Dist[gl] < best {
					best = spt.Dist[gl]
				}
			}
			if hv := lb.At(NodeID(v)); hv > best+1e-9 {
				t.Logf("seed %d: ToSet %v > nearest-goal dist %v at node %d", seed, hv, best, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// SPTCache.WithBounds routes Tree calls through the goal-directed search;
// distances on the stop set must match the unbounded cache exactly, and
// the bounded cache must do no more settling work.
func TestSPTCacheWithBoundsParity(t *testing.T) {
	g := NewGrid(12, 12, 1)
	b := gridBounds(g)
	stop := []NodeID{g.Node(1, 1), g.Node(3, 2), g.Node(2, 4)}
	s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
	plain := NewSPTCacheWithin(g.Graph, stop).WithScratch(s1)
	bounded := NewSPTCacheWithin(g.Graph, stop).WithScratch(s2).WithBounds(b)
	for _, src := range stop {
		tp, tb := plain.Tree(src), bounded.Tree(src)
		for _, v := range stop {
			if tp.Dist[v] != tb.Dist[v] {
				t.Fatalf("src %d goal %d: %v vs %v", src, v, tp.Dist[v], tb.Dist[v])
			}
		}
	}
	if s2.Settled > s1.Settled {
		t.Fatalf("bounded cache settled %d > plain %d", s2.Settled, s1.Settled)
	}
	// Fork must carry the bound along: a tree the base lacks comes out as
	// a bounded cache's, settling as few nodes.
	fs := NewDijkstraScratch()
	fork := bounded.Fork(fs)
	tr := fork.Tree(g.Node(1, 1))
	if tr.Dist[g.Node(3, 2)] != 3 {
		t.Fatalf("fork dist = %v", tr.Dist[g.Node(3, 2)])
	}
	far := g.Node(10, 10)
	ref := NewSPTCacheWithin(g.Graph, stop).WithScratch(NewDijkstraScratch()).WithBounds(b)
	if got, want := fork.Tree(far), ref.Tree(far); !sptEqual(got, want) || fs.Settled != ref.Scratch().Settled {
		t.Fatalf("fork's tree at %d settled %d nodes, a bounded cache's %d, or their labels differ", far, fs.Settled, ref.Scratch().Settled)
	}
}
