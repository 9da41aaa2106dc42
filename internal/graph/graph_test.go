package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges, want 5/0", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 0 {
		t.Fatalf("degree of isolated node = %d", g.Degree(0))
	}
	if d := g.Dijkstra(2).Dist; d[2] != 0 || d[0] != Inf() {
		t.Fatalf("search on an edgeless graph: dist %v", d)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 2.5)
	if id != 0 {
		t.Fatalf("first edge ID = %d", id)
	}
	e := g.Edge(id)
	if e.U != 0 || e.V != 1 || e.W != 2.5 || !e.Enabled {
		t.Fatalf("edge = %+v", e)
	}
	if g.Other(id, 0) != 1 || g.Other(id, 1) != 0 {
		t.Fatal("Other endpoint wrong")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree wrong after AddEdge")
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(g *Graph)
	}{
		{"self-loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"out-of-range", func(g *Graph) { g.AddEdge(0, 9, 1) }},
		{"negative-node", func(g *Graph) { g.AddEdge(-1, 0, 1) }},
		{"negative-weight", func(g *Graph) { g.AddEdge(0, 1, -1) }},
		{"nan-weight", func(g *Graph) { g.AddEdge(0, 1, math.NaN()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.f(New(3))
		})
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(0, 1, 2)
	if a == b {
		t.Fatal("parallel edges share an ID")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("degree = %d, want 2", g.Degree(0))
	}
}

func TestEnableDisable(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1)
	if !g.Enabled(id) {
		t.Fatal("new edge should be enabled")
	}
	g.SetEnabled(id, false)
	if g.Enabled(id) || g.Degree(0) != 0 {
		t.Fatal("disable did not take effect")
	}
	g.SetEnabled(id, true)
	if !g.Enabled(id) || g.Degree(0) != 1 {
		t.Fatal("re-enable did not take effect")
	}
}

func TestSetWeightAndAddWeight(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1)
	g.SetWeight(id, 4)
	if g.Weight(id) != 4 {
		t.Fatal("SetWeight failed")
	}
	g.AddWeight(id, 0.5)
	if g.Weight(id) != 4.5 {
		t.Fatal("AddWeight failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	g.SetWeight(id, -1)
}

func TestClone(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	c := g.Clone()
	c.SetWeight(id, 9)
	c.SetEnabled(1, false)
	if g.Weight(id) != 1 || !g.Enabled(1) {
		t.Fatal("clone shares state with original")
	}
	if c.Weight(id) != 9 || c.Enabled(1) {
		t.Fatal("clone mutations lost")
	}
}

func TestDijkstraLine(t *testing.T) {
	// 0 -1- 1 -2- 2 -3- 3
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	spt := g.Dijkstra(0)
	want := []float64{0, 1, 3, 6}
	for v, d := range want {
		if spt.Dist[v] != d {
			t.Fatalf("dist[%d] = %v, want %v", v, spt.Dist[v], d)
		}
	}
	path := spt.PathTo(3)
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3", len(path))
	}
}

func TestDijkstraPrefersCheaperDetour(t *testing.T) {
	// Direct edge 0-2 costs 10; detour through 1 costs 3.
	g := New(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	spt := g.Dijkstra(0)
	if spt.Dist[2] != 3 {
		t.Fatalf("dist[2] = %v, want 3", spt.Dist[2])
	}
	if got := spt.PathTo(2); len(got) != 2 {
		t.Fatalf("path = %v, want 2 edges", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	spt := g.Dijkstra(0)
	if spt.Reachable(2) {
		t.Fatal("node 2 should be unreachable")
	}
	if spt.PathTo(2) != nil {
		t.Fatal("PathTo unreachable should be nil")
	}
	if p := spt.PathTo(0); p == nil || len(p) != 0 {
		t.Fatal("PathTo source should be empty non-nil")
	}
}

func TestDijkstraRespectsDisabledEdges(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.SetEnabled(a, false)
	spt := g.Dijkstra(0)
	if spt.Reachable(1) || spt.Reachable(2) {
		t.Fatal("disabled edge should block all paths")
	}
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	spt := g.Dijkstra(0)
	if spt.Dist[2] != 0 {
		t.Fatalf("dist through zero edges = %v", spt.Dist[2])
	}
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := RandomConnected(rng, n, n*3, 10)
		// Randomly disable a few edges (keeping potential disconnection).
		for i := 0; i < g.NumEdges()/10; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		apsp := floydWarshall(g)
		for src := 0; src < n; src += 1 + n/5 {
			spt := g.Dijkstra(NodeID(src))
			for v := 0; v < n; v++ {
				if math.Abs(spt.Dist[v]-apsp[src][v]) > 1e-9 &&
					!(math.IsInf(spt.Dist[v], 1) && math.IsInf(apsp[src][v], 1)) {
					t.Fatalf("trial %d: dist(%d,%d) dijkstra=%v fw=%v",
						trial, src, v, spt.Dist[v], apsp[src][v])
				}
			}
		}
	}
}

// floydWarshall computes all-pairs shortest-path distances over g's
// enabled edges in O(V^3): the oracle TestDijkstraMatchesFloydWarshall
// checks per-source Dijkstra against.
func floydWarshall(g *Graph) [][]float64 {
	n := g.n
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for id := range g.eu {
		if !g.enabledBit(EdgeID(id)) {
			continue
		}
		u, v, w := g.eu[id], g.ev[id], g.w[id]
		if w < d[u][v] {
			d[u][v] = w
			d[v][u] = w
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik == inf {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraPathCostsMatchDist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomConnected(rng, 40, 120, 5)
	spt := g.Dijkstra(0)
	for v := NodeID(1); v < 40; v++ {
		path := spt.PathTo(v)
		cost := g.TotalWeight(path)
		if math.Abs(cost-spt.Dist[v]) > 1e-9 {
			t.Fatalf("path cost %v != dist %v for node %d", cost, spt.Dist[v], v)
		}
		// Path must start at source and end at v.
		if g.Edge(path[0]).U != 0 && g.Edge(path[0]).V != 0 {
			t.Fatalf("path to %d does not start at source", v)
		}
		last := g.Edge(path[len(path)-1])
		if last.U != v && last.V != v {
			t.Fatalf("path to %d does not end at %d", v, v)
		}
	}
}

func TestSPTCacheMemoizes(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	c := NewSPTCache(g)
	t1 := c.Tree(0)
	t2 := c.Tree(0)
	if t1 != t2 {
		t.Fatal("cache returned different trees for same source")
	}
	if c.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", c.Runs)
	}
	if d := c.Dist(2, 0); d != 2 {
		t.Fatalf("symmetric Dist = %v, want 2", d)
	}
	if c.Runs != 1 {
		t.Fatalf("Dist(2,0) should reuse tree rooted at 0; Runs = %d", c.Runs)
	}
	if _, ok := c.CachedTree(1); ok {
		t.Fatal("tree at 1 should not be cached")
	}
	if p := c.Path(2, 0); len(p) != 2 {
		t.Fatalf("Path(2,0) = %v", p)
	}
	if c.Runs != 1 {
		t.Fatalf("Path should reuse cached endpoint; Runs = %d", c.Runs)
	}
}

// TestAppendPathMatchesPath: AppendPath reads the same tree as Path — same
// edge multiset, no extra Dijkstra runs — appends after whatever dst holds,
// and leaves dst alone for a disconnected pair.
func TestAppendPathMatchesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		g := RandomConnected(rng, n, 2*n, 4)
		c := NewSPTCache(g)
		for range 3 {
			c.Tree(NodeID(rng.Intn(n)))
		}
		prefix := []EdgeID{7, 7}
		for range 10 {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			runs := c.Runs
			want := slices.Sorted(slices.Values(c.Path(u, v)))
			runsPath := c.Runs - runs
			got := c.AppendPath(slices.Clone(prefix), u, v)
			if c.Runs-runs != runsPath {
				t.Fatalf("trial %d: AppendPath(%d,%d) ran Dijkstra where Path did not", trial, u, v)
			}
			if !slices.Equal(got[:2], prefix) {
				t.Fatalf("trial %d: prefix clobbered: %v", trial, got)
			}
			if slices.Sort(got[2:]); !slices.Equal(got[2:], want) {
				t.Fatalf("trial %d: AppendPath(%d,%d) = %v, Path = %v", trial, u, v, got[2:], want)
			}
		}
	}
	g := New(3)
	g.AddEdge(0, 1, 1)
	if got := NewSPTCache(g).AppendPath([]EdgeID{4}, 0, 2); !slices.Equal(got, []EdgeID{4}) {
		t.Fatalf("disconnected AppendPath = %v, want dst unchanged", got)
	}
}

func TestMSTLineAndCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 0, 10) // cycle edge, should be excluded
	k, err := g.KruskalMST()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TotalWeight(k); got != 6 {
		t.Fatalf("kruskal cost = %v, want 6", got)
	}
	p, err := g.PrimMST(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TotalWeight(p); got != 6 {
		t.Fatalf("prim cost = %v, want 6", got)
	}
	if got, err := g.MSTCost(); err != nil || got != 6 {
		t.Fatalf("MSTCost = %v, %v, want 6", got, err)
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, err := g.KruskalMST(); err != ErrDisconnected {
		t.Fatalf("kruskal err = %v", err)
	}
	if _, err := g.PrimMST(0); err != ErrDisconnected {
		t.Fatalf("prim err = %v", err)
	}
}

func TestPrimEqualsKruskalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := RandomConnected(rng, n, n*2, 9)
		k, err := g.KruskalMST()
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.PrimMST(NodeID(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.TotalWeight(k)-g.TotalWeight(p)) > 1e-9 {
			t.Fatalf("trial %d: kruskal %v != prim %v", trial, g.TotalWeight(k), g.TotalWeight(p))
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatal("initial sets")
	}
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("unions should succeed")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union should report false")
	}
	if !u.Connected(0, 2) || u.Connected(0, 3) {
		t.Fatal("connectivity wrong")
	}
	if u.Sets() != 3 {
		t.Fatalf("sets = %d, want 3", u.Sets())
	}
}

// TestUnionFindReset: a reset structure is n fresh singletons whether it
// shrinks, regrows within capacity, or must reallocate.
func TestUnionFindReset(t *testing.T) {
	u := NewUnionFind(6)
	u.Union(0, 5)
	u.Union(1, 2)
	for _, n := range []int{3, 6, 9} {
		u.Reset(n)
		if u.Sets() != n {
			t.Fatalf("Reset(%d): sets = %d", n, u.Sets())
		}
		for i := int32(1); i < int32(n); i++ {
			if u.Connected(0, i) {
				t.Fatalf("Reset(%d): 0 and %d still joined", n, i)
			}
		}
		if !u.Union(0, int32(n-1)) || !u.Connected(0, int32(n-1)) {
			t.Fatalf("Reset(%d): union after reset failed", n)
		}
	}
}

func TestGridGraph(t *testing.T) {
	g := NewGrid(4, 3, 1)
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// 4×3 grid: horizontal edges 3*3=9, vertical 4*2=8.
	if g.NumEdges() != 17 {
		t.Fatalf("edges = %d, want 17", g.NumEdges())
	}
	if g.Node(3, 2) != 11 {
		t.Fatal("Node mapping wrong")
	}
	x, y := g.Coords(11)
	if x != 3 || y != 2 {
		t.Fatal("Coords mapping wrong")
	}
	// Shortest path between opposite corners is the Manhattan distance.
	spt := g.Dijkstra(g.Node(0, 0))
	if d := spt.Dist[g.Node(3, 2)]; d != 5 {
		t.Fatalf("corner distance = %v, want 5", d)
	}
	if mw := g.MeanWeight(); mw != 1 {
		t.Fatalf("mean weight = %v", mw)
	}
}

func TestConnectedComponent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	comp := g.ConnectedComponent(0)
	if !comp[0] || !comp[1] || comp[2] || comp[3] {
		t.Fatalf("component = %v", comp)
	}
}
