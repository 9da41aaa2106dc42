package fpga

import (
	"math"
	"math/rand"
	"testing"

	"fpgarouter/internal/graph"
)

// checkEdgeConsistency asserts the bound's per-edge consistency invariant:
// for every enabled edge (u, v, w), the L1 displacement between the two
// endpoint coordinates is at most w. Consistency of the A* heuristic
// h(v) = LowerBound(v, goal) follows for every goal by the triangle
// inequality of the L1 metric, and admissibility follows from consistency
// by induction along any path.
func checkEdgeConsistency(t *testing.T, f *Fabric, when string) {
	t.Helper()
	b := f.Bounds()
	g := f.Graph()
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(graph.EdgeID(id))
		if !e.Enabled {
			continue
		}
		disp := math.Abs(b.X[e.U]-b.X[e.V]) + math.Abs(b.Y[e.U]-b.Y[e.V])
		if disp > e.W+1e-9 {
			t.Fatalf("%s: edge %d (%d-%d): displacement %v > weight %v", when, id, e.U, e.V, disp, e.W)
		}
	}
}

// checkAdmissibility cross-checks the bound against true shortest-path
// distances from a few sampled sources.
func checkAdmissibility(t *testing.T, f *Fabric, rng *rand.Rand, when string) {
	t.Helper()
	b := f.Bounds()
	g := f.Graph()
	for s := 0; s < 4; s++ {
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

func randomPin(rng *rand.Rand, f *Fabric) Pin {
	return Pin{
		X: rng.Intn(f.Cols), Y: rng.Intn(f.Rows),
		Side: Side(rng.Intn(4)), Index: rng.Intn(f.PinsPerSide),
	}
}

// TestBoundsAdmissibleUnderCongestion drives a fabric through the full
// mutation cycle — demand registration, net activation, committed routes
// (which reweight whole spans), and Reset — asserting after every step
// that the coordinate bound stays a consistent admissible lower bound.
// Congestion and demand only scale weights up from the base wirelength,
// which is exactly the coordinate displacement, so the bound must survive
// every state the router can put the fabric in.
func TestBoundsAdmissibleUnderCongestion(t *testing.T) {
	for _, segLens := range [][]int{nil, {1, 2, 4, 1}} {
		f := mustFabric(t, Arch{Cols: 4, Rows: 4, W: 4, Fs: 3, Fc: 2, PinsPerSide: 2, SegLens: segLens})
		rng := rand.New(rand.NewSource(42))
		checkEdgeConsistency(t, f, "base")
		checkAdmissibility(t, f, rng, "base")

		// Register demand for some future nets, then route and commit a few
		// 2-pin nets through real shortest paths.
		for i := 0; i < 6; i++ {
			f.AddPinDemand(randomPin(rng, f), 1)
		}
		for net := 0; net < 4; net++ {
			pa, pb := randomPin(rng, f), randomPin(rng, f)
			if pa == pb {
				continue
			}
			f.BeginNet([]Pin{pa, pb})
			checkEdgeConsistency(t, f, "after BeginNet")
			spt := f.Graph().DijkstraWithin(f.PinNode(pa), []graph.NodeID{f.PinNode(pb)})
			if !spt.Reachable(f.PinNode(pb)) {
				continue
			}
			f.CommitNet(graph.NewTree(f.Graph(), spt.PathTo(f.PinNode(pb))))
			checkEdgeConsistency(t, f, "after CommitNet")
		}
		checkAdmissibility(t, f, rng, "congested")

		// A goal-directed search on the congested fabric must agree with
		// plain Dijkstra on the goal distance.
		pa, pb := Pin{X: 0, Y: 0, Side: South, Index: 0}, Pin{X: 3, Y: 3, Side: North, Index: 1}
		f.BeginNet([]Pin{pa, pb})
		src, goal := f.PinNode(pa), f.PinNode(pb)
		ref := f.Graph().DijkstraWithin(src, []graph.NodeID{goal})
		ast := f.Graph().DijkstraWithinBounded(nil, src, []graph.NodeID{goal}, f.Bounds())
		if ref.Dist[goal] != ast.Dist[goal] {
			t.Fatalf("congested A* dist %v vs dijkstra %v", ast.Dist[goal], ref.Dist[goal])
		}

		f.Reset()
		checkEdgeConsistency(t, f, "after Reset")
		checkAdmissibility(t, f, rng, "after Reset")
	}
}

// TestBoundsTightOnBaseFabric pins the geometry: on an uncongested fabric
// the coordinate bound between two switch-block nodes equals the true
// shortest-path distance whenever a straight channel run exists (no slack
// lost to the encoding), which keeps A* maximally informed.
func TestBoundsTightOnBaseFabric(t *testing.T) {
	f := mustFabric(t, Arch{Cols: 4, Rows: 4, W: 2, Fs: 3, Fc: 2, PinsPerSide: 1})
	b := f.Bounds()
	u, v := f.sbNode(0, 2, 0), f.sbNode(4, 2, 0)
	spt := f.Graph().Dijkstra(u)
	if lb := b.LowerBound(u, v); lb != spt.Dist[v] {
		t.Fatalf("straight run: bound %v, true dist %v", lb, spt.Dist[v])
	}
}
