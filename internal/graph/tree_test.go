package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestValidateTreeAccepts(t *testing.T) {
	g := lineGraph(4)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	if err := ValidateTree(g, tr, []NodeID{0, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	if err := ValidateTree(g, tr, []NodeID{0, 2}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateTreeRejectsDuplicateEdge(t *testing.T) {
	g := lineGraph(3)
	tr := Tree{Edges: []EdgeID{0, 0}}
	if err := ValidateTree(g, tr, []NodeID{0, 1}); err == nil {
		t.Fatal("duplicate edge not detected")
	}
}

func TestValidateTreeRejectsUnspanned(t *testing.T) {
	g := lineGraph(4)
	tr := NewTree(g, []EdgeID{0})
	if err := ValidateTree(g, tr, []NodeID{0, 3}); err == nil {
		t.Fatal("unspanned net not detected")
	}
}

func TestValidateTreeSingletonNet(t *testing.T) {
	g := lineGraph(2)
	if err := ValidateTree(g, Tree{}, []NodeID{1}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsForest(t *testing.T) {
	// Two disjoint edges spanning the net's two components would be a
	// forest, not a tree; the net nodes are connected though. Construct:
	// net {0,1}, edges {0-1, 2-3}: net connected but extra component.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	tr := NewTree(g, []EdgeID{0, 1})
	if err := ValidateTree(g, tr, []NodeID{0, 1}); err == nil {
		t.Fatal("forest not detected")
	}
}

func TestTreeDistsAndMaxPathlength(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 5)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	d := TreeDists(g, tr, 0)
	if d[2] != 3 || d[3] != 6 {
		t.Fatalf("tree dists = %v", d)
	}
	if mp := MaxPathlength(g, tr, 0, []NodeID{2, 3}); mp != 6 {
		t.Fatalf("max pathlength = %v", mp)
	}
}

func TestPruneTreeRemovesPendantChains(t *testing.T) {
	// Star with a dangling chain: keep {0,1}, prune chain 2-3-4.
	g := New(5)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e23 := g.AddEdge(2, 3, 1)
	e34 := g.AddEdge(3, 4, 1)
	pruned := PruneTree(g, NewDijkstraScratch(), []EdgeID{e01, e12, e23, e34}, []NodeID{0, 1})
	if len(pruned.Edges) != 1 || pruned.Edges[0] != e01 {
		t.Fatalf("pruned edges = %v", pruned.Edges)
	}
	if pruned.Cost != 1 {
		t.Fatalf("pruned cost = %v", pruned.Cost)
	}
}

func TestPruneTreeKeepsSteinerJunctions(t *testing.T) {
	// Node 1 is a non-net junction of degree 3; it must survive pruning.
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e13 := g.AddEdge(1, 3, 1)
	pruned := PruneTree(g, NewDijkstraScratch(), []EdgeID{e01, e12, e13}, []NodeID{0, 2, 3})
	if len(pruned.Edges) != 3 {
		t.Fatalf("junction wrongly pruned: %v", pruned.Edges)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 2)
	e23 := g.AddEdge(2, 3, 3)
	sub, back := Subgraph(g, []EdgeID{e12, e23, e12}) // duplicate collapses
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	if back[0] != e12 || back[1] != e23 {
		t.Fatalf("back mapping = %v", back)
	}
	if sub.Weight(0) != 2 {
		t.Fatal("weights not carried over")
	}
}

// Property: for random connected graphs, the MST is a valid spanning tree
// and Prim/Kruskal agree; Dijkstra tree paths match reported distances.
func TestQuickMSTAndDijkstraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := RandomConnected(rng, n, n*2, 7)
		mst, err := g.PrimMST(0)
		if err != nil {
			return false
		}
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		if err := ValidateTree(g, NewTree(g, mst), all); err != nil {
			return false
		}
		kr, err := g.KruskalMST()
		if err != nil || math.Abs(g.TotalWeight(kr)-g.TotalWeight(mst)) > 1e-9 {
			return false
		}
		spt := g.Dijkstra(0)
		for v := 1; v < n; v++ {
			p := spt.PathTo(NodeID(v))
			if math.Abs(g.TotalWeight(p)-spt.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pruneOracle is the textbook leaf-pruning fixpoint over maps: sweep the
// edge list deleting any live edge with a degree-1 endpoint outside keep,
// until a sweep deletes nothing. It shares no code or numbering with
// PruneTree.
func pruneOracle(g *Graph, edges []EdgeID, keep []NodeID) []EdgeID {
	keepSet := make(map[NodeID]bool)
	for _, v := range keep {
		keepSet[v] = true
	}
	deg := make(map[NodeID]int)
	alive := make(map[int]bool)
	for i, id := range edges {
		e := g.Edge(id)
		deg[e.U]++
		deg[e.V]++
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for i, id := range edges {
			e := g.Edge(id)
			if alive[i] && (deg[e.U] == 1 && !keepSet[e.U] || deg[e.V] == 1 && !keepSet[e.V]) {
				alive[i] = false
				deg[e.U]--
				deg[e.V]--
				changed = true
			}
		}
	}
	out := []EdgeID{}
	for i, id := range edges {
		if alive[i] {
			out = append(out, id)
		}
	}
	return out
}

// TestPruneTreeMatchesOracle: on random edge subsets of random graphs —
// spanning trees, forests, subsets with cycles, shuffled order — with keep
// sets that may name nodes the edges never touch, PruneTree returns exactly
// the oracle's edges in the oracle's (input) order. One scratch serves every
// trial, with a live NodeSet dirtied in between, so stale buffer and slot
// contents from earlier calls cannot leak into a result.
func TestPruneTreeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewDijkstraScratch()
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		g := RandomConnected(rng, n, n+rng.Intn(2*n), 5)
		var edges []EdgeID
		switch trial % 3 {
		case 0: // a spanning tree, as KMB's local MST produces
			edges, _ = g.KruskalMST()
		case 1: // a forest
			mst, _ := g.KruskalMST()
			for _, id := range mst {
				if rng.Intn(4) > 0 {
					edges = append(edges, id)
				}
			}
		default: // an arbitrary subset, cycles included
			for id := 0; id < g.NumEdges(); id++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, EdgeID(id))
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		keep := RandomNet(rng, g, 1+rng.Intn(min(n, 6)))
		ns := s.NodeSet(n)
		for v := 0; v < n; v += 2 {
			ns.Add(NodeID(v))
		}
		in := slices.Clone(edges)
		got := PruneTree(g, s, edges, keep)
		want := pruneOracle(g, edges, keep)
		if !slices.Equal(got.Edges, want) {
			t.Fatalf("trial %d: PruneTree = %v, oracle = %v (input %v, keep %v)", trial, got.Edges, want, edges, keep)
		}
		if got.Cost != g.TotalWeight(want) {
			t.Fatalf("trial %d: cost %v, want %v", trial, got.Cost, g.TotalWeight(want))
		}
		if !slices.Equal(edges, in) {
			t.Fatalf("trial %d: PruneTree modified its input", trial)
		}
		if len(got.Edges) > 0 && len(edges) > 0 && &got.Edges[0] == &edges[0] {
			t.Fatalf("trial %d: result aliases the input slice", trial)
		}
	}
}
