package fpga3d

import (
	"math"
	"math/rand"
	"testing"

	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
)

// TestBounds3DAdmissible asserts the stacked fabric's coordinate bound is
// a consistent admissible lower bound: every enabled edge's L1
// displacement (with Z scaled by ViaLength) is at most its weight, sampled
// lower bounds never exceed true distances, and both survive committed
// nets (which only disable edges — the 3D fabric never reweights).
func TestBounds3DAdmissible(t *testing.T) {
	a := DefaultArch(3, 3, 3, 4)
	a.ViaLength = 2.5
	f, err := NewFabric3D(a)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Bounds()
	g := f.Graph()
	rng := rand.New(rand.NewSource(7))

	check := func(when string) {
		t.Helper()
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(graph.EdgeID(id))
			if !e.Enabled {
				continue
			}
			disp := math.Abs(b.X[e.U]-b.X[e.V]) + math.Abs(b.Y[e.U]-b.Y[e.V]) + math.Abs(b.Z[e.U]-b.Z[e.V])
			if disp > e.W+1e-9 {
				t.Fatalf("%s: edge %d: displacement %v > weight %v", when, id, disp, e.W)
			}
		}
		for s := 0; s < 3; s++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			spt := g.Dijkstra(src)
			for v := 0; v < g.NumNodes(); v++ {
				if math.IsInf(spt.Dist[v], 1) {
					continue
				}
				if lb := b.LowerBound(src, graph.NodeID(v)); lb > spt.Dist[v]+1e-9 {
					t.Fatalf("%s: bound %v > dist %v for %d→%d", when, lb, spt.Dist[v], src, v)
				}
			}
		}
	}

	check("base")

	// Commit a real cross-layer route, then re-check: disabling edges can
	// only raise distances, never break admissibility.
	src := Pin3D{Layer: 0, Pin: fpga.Pin{X: 0, Y: 0, Side: fpga.North}}
	dst := Pin3D{Layer: 2, Pin: fpga.Pin{X: 2, Y: 2, Side: fpga.South, Index: 1}}
	f.BeginNet([]Pin3D{src, dst})
	spt := g.DijkstraWithin(f.PinNode(src), []graph.NodeID{f.PinNode(dst)})
	if !spt.Reachable(f.PinNode(dst)) {
		t.Fatal("cross-layer pins not connected")
	}
	f.CommitNet(graph.NewTree(g, spt.PathTo(f.PinNode(dst))))
	check("after CommitNet")

	// A* across layers agrees with Dijkstra on the congestion-free metric.
	f.BeginNet([]Pin3D{src, dst})
	s, d := f.PinNode(src), f.PinNode(dst)
	ref := g.DijkstraWithin(s, []graph.NodeID{d})
	ast := g.DijkstraWithinBounded(nil, s, []graph.NodeID{d}, b)
	if ref.Dist[d] != ast.Dist[d] {
		t.Fatalf("3D A* dist %v vs dijkstra %v", ast.Dist[d], ref.Dist[d])
	}

	f.Reset()
	check("after Reset")
}
