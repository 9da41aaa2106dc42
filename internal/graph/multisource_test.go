package graph

import (
	"math"
	"math/rand"
	"testing"
)

// dijkstraFrom runs the priced kernel from seeds on a fresh scratch,
// unpriced for a nil ov: Dist[v] is the minimum over seeds of seed.Dist
// plus the seed-to-v path cost. A non-nil stop set ends the search once
// every stop node has settled; the tree's Source is the first seed (None
// for no seeds), and seed nodes carry ParentEdge None.
func (g *Graph) dijkstraFrom(seeds []Seed, stop []NodeID, ov *Overlay) *SPT {
	s, t := NewDijkstraScratch(), new(SPT)
	g.search(s, t, query{src: None, seeds: seeds, stop: stop, ov: ov})
	return t
}

// TestQuickDijkstraFromMatchesPerSeedOracle checks the defining property of
// the multi-source search on random connected graphs: Dist[v] equals the
// minimum over seeds of seed.Dist + d(seed.Node, v), with d taken from
// independent single-source runs.
func TestQuickDijkstraFromMatchesPerSeedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		g := RandomConnected(rng, n, n*3, 8)
		k := 1 + rng.Intn(4)
		seeds := make([]Seed, k)
		perm := rng.Perm(n)
		for i := range seeds {
			seeds[i] = Seed{Node: NodeID(perm[i]), Dist: float64(rng.Intn(3))}
		}
		got := g.dijkstraFrom(seeds, nil, nil)
		for v := 0; v < n; v++ {
			want := math.Inf(1)
			for _, sd := range seeds {
				if d := sd.Dist + g.Dijkstra(sd.Node).Dist[v]; d < want {
					want = d
				}
			}
			if math.Abs(got.Dist[NodeID(v)]-want) > 1e-9 {
				t.Fatalf("trial %d: Dist[%d] = %g, want %g", trial, v, got.Dist[v], want)
			}
		}
		// Parent pointers must walk back to a seed, and the path cost plus
		// that seed's initial distance must reproduce Dist.
		isSeed := make(map[NodeID]float64)
		for _, sd := range seeds {
			if d, ok := isSeed[sd.Node]; !ok || sd.Dist < d {
				isSeed[sd.Node] = sd.Dist
			}
		}
		for v := 0; v < n; v++ {
			u := NodeID(v)
			cost := 0.0
			for got.ParentEdge[u] != None {
				cost += g.Weight(got.ParentEdge[u])
				u = got.ParentNode[u]
			}
			d0, ok := isSeed[u]
			if !ok {
				t.Fatalf("trial %d: path from %d ends at non-seed %d", trial, v, u)
			}
			if math.Abs(d0+cost-got.Dist[NodeID(v)]) > 1e-9 {
				t.Fatalf("trial %d: path cost %g+%g disagrees with Dist[%d]=%g", trial, d0, cost, v, got.Dist[v])
			}
		}
	}
}

// TestQuickDijkstraFromOverlayMatchesBakedWeights compares the priced
// seeded search against the unpriced one on a clone with the prices folded
// into the base weights.
func TestQuickDijkstraFromOverlayMatchesBakedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(40)
		g := RandomConnected(rng, n, n*3, 8)
		ov := NewOverlay(g)
		baked := g.Clone()
		for id := 0; id < g.NumEdges(); id++ {
			p := rng.Float64() * 4
			ov.AddPrice(EdgeID(id), p)
			baked.AddWeight(EdgeID(id), p)
		}
		seeds := []Seed{{Node: NodeID(rng.Intn(n))}, {Node: NodeID(rng.Intn(n)), Dist: 2}}
		got := g.dijkstraFrom(seeds, nil, ov)
		want := baked.dijkstraFrom(seeds, nil, nil)
		for v := 0; v < n; v++ {
			if math.Abs(got.Dist[NodeID(v)]-want.Dist[NodeID(v)]) > 1e-9 {
				t.Fatalf("trial %d: Dist[%d] = %g, want %g", trial, v, got.Dist[v], want.Dist[v])
			}
		}
	}
}

// TestQuickAStarFromExactOnGrids checks the goal-directed seeded search the
// pathfinder reconnects orphaned pins with: AStarFromAnyOverlay guided by
// the grid's coordinate bound toward the stop set (as the pathfinder
// guides it with the fabric's) returns a stop node at exactly the minimum
// multi-source distance the seeded search reports over the stop set.
func TestQuickAStarFromExactOnGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		w, h := 5+rng.Intn(8), 5+rng.Intn(8)
		g := NewGrid(w, h, 1)
		b := gridBounds(g)
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(3) == 0 {
				g.SetWeight(EdgeID(i), 1+rng.Float64()*4)
			}
		}
		n := g.NumNodes()
		seeds := []Seed{{Node: NodeID(rng.Intn(n))}, {Node: NodeID(rng.Intn(n))}}
		stop := []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		goal, got := g.Graph.AStarFromAnyOverlay(nil, seeds, stop, NewOverlay(g.Graph), b.ToSet(stop))
		want := g.Graph.dijkstraFrom(seeds, stop, nil)
		best := math.Inf(1)
		for _, v := range stop {
			best = math.Min(best, want.Dist[v])
		}
		if goal == None {
			t.Fatalf("trial %d: no goal found on a connected grid", trial)
		}
		if math.Abs(got.Dist[goal]-best) > 1e-9 {
			t.Fatalf("trial %d: goal %d at %g, nearest is %g", trial, goal, got.Dist[goal], best)
		}
	}
}

// TestQuickAStarFromAnyReturnsNearestGoal checks the first-settled contract:
// the returned goal is at minimum seeded distance over the goal set, its
// distance is exact, and PathTo walks back to a seed.
func TestQuickAStarFromAnyReturnsNearestGoal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(50)
		g := RandomConnected(rng, n, n*3, 8)
		ov := NewOverlay(g)
		for id := 0; id < g.NumEdges(); id++ {
			ov.AddPrice(EdgeID(id), rng.Float64()*2)
		}
		perm := rng.Perm(n)
		seeds := []Seed{{Node: NodeID(perm[0])}, {Node: NodeID(perm[1])}}
		goals := []NodeID{NodeID(perm[2]), NodeID(perm[3]), NodeID(perm[4])}
		goal, spt := g.AStarFromAnyOverlay(nil, seeds, goals, ov, SetBound{})
		oracle := g.dijkstraFrom(seeds, nil, ov)
		best := math.Inf(1)
		for _, v := range goals {
			if oracle.Dist[v] < best {
				best = oracle.Dist[v]
			}
		}
		if goal == None {
			t.Fatalf("trial %d: no goal found on a connected graph", trial)
		}
		if math.Abs(spt.Dist[goal]-best) > 1e-9 {
			t.Fatalf("trial %d: settled goal %d at %g, nearest is %g", trial, goal, spt.Dist[goal], best)
		}
		if path := spt.PathTo(goal); path == nil {
			t.Fatalf("trial %d: nil path to settled goal %d", trial, goal)
		}
	}
}

// TestDijkstraFromDegenerate covers the empty and single-seed cases: no
// seeds yields an all-unreachable tree; one zero-distance seed reproduces
// plain Dijkstra exactly.
func TestDijkstraFromDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RandomConnected(rng, 40, 120, 8)
	empty := g.dijkstraFrom(nil, nil, nil)
	for v := 0; v < g.NumNodes(); v++ {
		if empty.Reachable(NodeID(v)) {
			t.Fatalf("empty seed set reached node %d", v)
		}
	}
	one := g.dijkstraFrom([]Seed{{Node: 7}}, nil, nil)
	ref := g.Dijkstra(7)
	for v := 0; v < g.NumNodes(); v++ {
		if one.Dist[NodeID(v)] != ref.Dist[NodeID(v)] {
			t.Fatalf("single-seed Dist[%d] = %g, plain Dijkstra %g", v, one.Dist[v], ref.Dist[v])
		}
	}
}
