package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the CSR-streaming dijkstraWith is bit-identical to the
// pre-refactor adjacency-walking loop (LegacyDijkstra) on arbitrary graph
// states — distances, parents AND work counters, under random disables,
// reweights and early-stop sets. This is the refactor's core contract: the
// CSR rebuild places each node's arcs in edge-insertion order, exactly how
// the old layout's appends ordered them, so the two loops relax the same
// arcs in the same order with the same arithmetic. Half the instances
// declare a pin boundary (pinGrid), and between their searches the pin
// edges go through BeginNet-style enables and random flips, so the pin-tail
// skip runs against the full-scan oracle.
func TestQuickLegacyDijkstraParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		var p *pinGrid
		if rng.Intn(2) == 0 {
			n := 5 + rng.Intn(60)
			g = RandomConnected(rng, n, n*3, 8)
		} else {
			p = newPinGrid(seed, true)
			g = p.Graph
		}
		n := g.NumNodes()
		for i := 0; i < g.NumEdges()/4; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		for i := 0; i < g.NumEdges()/4; i++ {
			g.SetWeight(EdgeID(rng.Intn(g.NumEdges())), 1+rng.Float64()*10)
		}
		for round := 0; round < 4; round++ {
			if p != nil && round > 0 {
				p.openPins(rng, rng.Intn(4))
				for i := 0; i < len(p.PinEdges)/4; i++ {
					p.SetEnabled(p.PinEdges[rng.Intn(len(p.PinEdges))], rng.Intn(2) == 0)
				}
			}
			src := NodeID(rng.Intn(n))
			var stop []NodeID
			if rng.Intn(2) == 0 {
				stop = RandomNet(rng, g, 1+rng.Intn(n))
			}
			s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
			a := g.dijkstraWith(s1, src, stop)
			b := g.LegacyDijkstra(s2, src, stop)
			for v := 0; v < n; v++ {
				if a.Dist[v] != b.Dist[v] || a.ParentEdge[v] != b.ParentEdge[v] || a.ParentNode[v] != b.ParentNode[v] {
					t.Logf("seed %d round %d: node %d: csr (%v,%v,%v) legacy (%v,%v,%v)", seed, round, v,
						a.Dist[v], a.ParentEdge[v], a.ParentNode[v], b.Dist[v], b.ParentEdge[v], b.ParentNode[v])
					return false
				}
			}
			if s1.Settled != s2.Settled || s1.HeapPushes != s2.HeapPushes {
				t.Logf("seed %d round %d: counters csr (%d,%d) legacy (%d,%d)", seed, round,
					s1.Settled, s1.HeapPushes, s2.Settled, s2.HeapPushes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Mutating the edge set after a Freeze marks the CSR dirty and the next
// traversal rebuilds it; weight/enable flips never do (they patch arcw in
// place through the slot map). Each interleaving must leave traversals
// exact.
func TestCSRRebuildAcrossMutationEpochs(t *testing.T) {
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.Freeze()
	if got := g.Dijkstra(0).Dist[2]; got != 2 {
		t.Fatalf("dist[2] = %v", got)
	}
	// Post-freeze AddEdge: a shortcut 0-2 must appear in the next run.
	e02 := g.AddEdge(0, 2, 1)
	if got := g.Dijkstra(0).Dist[2]; got != 1 {
		t.Fatalf("after AddEdge: dist[2] = %v, want 1", got)
	}
	// In-place weight update, no rebuild in between.
	g.SetWeight(e02, 5)
	if got := g.Dijkstra(0).Dist[2]; got != 2 {
		t.Fatalf("after SetWeight: dist[2] = %v, want 2", got)
	}
	// Disable and re-enable through the bitset/arcw patch path.
	g.SetEnabled(e01, false)
	if got := g.Dijkstra(0).Dist[2]; got != 5 {
		t.Fatalf("after disable: dist[2] = %v, want 5", got)
	}
	g.SetEnabled(e01, true)
	if got := g.Dijkstra(0).Dist[1]; got != 1 {
		t.Fatalf("after re-enable: dist[1] = %v, want 1", got)
	}
	// Mutate-then-add interleaving: the rebuild must carry the patched
	// weight and enable state over into the new layout.
	g.SetWeight(e01, 3)
	g.SetEnabled(e02, false)
	g.AddEdge(2, 3, 1)
	spt := g.Dijkstra(0)
	if spt.Dist[3] != 5 || spt.Dist[2] != 4 {
		t.Fatalf("after rebuild: dist = %v", spt.Dist)
	}
}

// EnabledArcs must yield exactly the enabled arcs of Adj, in the same
// order, with the current weights.
func TestEnabledArcsMatchesAdjFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := RandomConnected(rng, 30, 90, 8)
	for i := 0; i < 30; i++ {
		g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
	}
	for u := 0; u < g.NumNodes(); u++ {
		var want []Arc
		var wantW []float64
		for _, a := range g.Adj(NodeID(u)) {
			if g.Enabled(a.ID) {
				want = append(want, a)
				wantW = append(wantW, g.Weight(a.ID))
			}
		}
		i := 0
		for a, w := range g.EnabledArcs(NodeID(u)) {
			if i >= len(want) || a != want[i] || w != wantW[i] {
				t.Fatalf("node %d arc %d: got (%v,%v) want (%v,%v)", u, i, a, w, want[i], wantW[i])
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("node %d: yielded %d arcs, want %d", u, i, len(want))
		}
	}
	// Degree counts the same arcs the iterator yields.
	for u := 0; u < g.NumNodes(); u++ {
		cnt := 0
		for range g.EnabledArcs(NodeID(u)) {
			cnt++
		}
		if cnt != g.Degree(NodeID(u)) {
			t.Fatalf("node %d: Degree %d vs iterated %d", u, g.Degree(NodeID(u)), cnt)
		}
	}
}

// EnabledArcs supports early break (the range-over-func contract).
func TestEnabledArcsEarlyBreak(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	n := 0
	for range g.EnabledArcs(0) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("broke after %d arcs", n)
	}
}

// +Inf weights are rejected at the API: the CSR encodes "disabled" as an
// infinite arc weight, so a real infinite weight would silently disable
// the edge. NaN and negative weights stay rejected too.
func TestInfiniteWeightRejected(t *testing.T) {
	g := New(2)
	for _, w := range []float64{math.Inf(1), math.NaN(), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge(%v) did not panic", w)
				}
			}()
			g.AddEdge(0, 1, w)
		}()
	}
	id := g.AddEdge(0, 1, 1)
	for _, w := range []float64{math.Inf(1), math.NaN(), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetWeight(%v) did not panic", w)
				}
			}()
			g.SetWeight(id, w)
		}()
	}
}

// Clone must deep-copy the CSR state: traversals on the clone see the
// clone's mutations, the original's traversals stay put, and a clone of a
// dirty graph rebuilds independently.
func TestCloneIndependentCSR(t *testing.T) {
	g := New(3)
	e := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.Freeze()
	c := g.Clone()
	c.SetWeight(e, 10)
	c.SetEnabled(e, false)
	c.AddEdge(0, 2, 1)
	if got := g.Dijkstra(0).Dist[2]; got != 2 {
		t.Fatalf("original perturbed: dist[2] = %v", got)
	}
	if got := c.Dijkstra(0).Dist[2]; got != 1 {
		t.Fatalf("clone: dist[2] = %v", got)
	}
	if got := c.Dijkstra(0).Dist[1]; got != 2 {
		t.Fatalf("clone: dist[1] = %v (edge 0-1 should be disabled)", got)
	}
}
