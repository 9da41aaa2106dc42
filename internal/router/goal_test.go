package router

import (
	"math"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
)

// paperSpecs returns all fourteen benchmark circuits of Tables 2 and 3.
func paperSpecs() []circuits.Spec {
	return append(append([]circuits.Spec(nil), circuits.Table2Circuits...), circuits.Table3Circuits...)
}

// TestGoalDirectedDistanceParityPaperCircuits is the cross-circuit exactness
// suite for the goal-directed searches the pathfinder routes with: on every
// paper circuit's fabric, for a sample of real nets, the A*-guided stop-set
// search (to all terminals, and point to point) and bidirectional Dijkstra
// under a zero overlay must agree with plain Dijkstra
// (DijkstraWithinScratch, which the graph package's parity suite pins to
// the pre-CSR loop) on every terminal distance. This pins the admissibility
// of the fabric bound on real geometry — congestion-free here; the
// congested case is covered by the fpga bounds tests, and priced overlays
// by the graph tests and the parallel golden routes.
func TestGoalDirectedDistanceParityPaperCircuits(t *testing.T) {
	for _, spec := range paperSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			ckt := synth(t, spec, 1)
			fab, err := fpga.NewFabric(ckt.ArchAt(10))
			if err != nil {
				t.Fatal(err)
			}
			b := fab.Bounds()
			g := fab.Graph()
			ov := graph.NewOverlay(g)
			nets := ckt.Nets
			if len(nets) > 12 {
				nets = nets[:12]
			}
			for i, net := range nets {
				fab.BeginNet(net.Pins)
				terms := make([]graph.NodeID, len(net.Pins))
				for j, p := range net.Pins {
					terms[j] = fab.PinNode(p)
				}
				src := terms[0]
				ref := g.DijkstraWithinScratch(nil, src, terms)
				bounded := g.DijkstraWithinBounded(nil, src, terms, b)
				for _, v := range terms {
					if ref.Dist[v] != bounded.Dist[v] {
						t.Fatalf("net %d terminal %d: bounded %v vs plain %v", i, v, bounded.Dist[v], ref.Dist[v])
					}
				}
				goal := terms[len(terms)-1]
				ast := g.DijkstraWithinBounded(nil, src, []graph.NodeID{goal}, b)
				if ast.Dist[goal] != ref.Dist[goal] {
					t.Fatalf("net %d: A* %v vs plain %v", i, ast.Dist[goal], ref.Dist[goal])
				}
				if src != goal {
					cost, _, ok := g.BiDijkstraOverlay(nil, src, goal, ov)
					if !ok || math.Abs(cost-ref.Dist[goal]) > 1e-9 {
						t.Fatalf("net %d: bidijkstra (%v,%v) vs plain %v", i, cost, ok, ref.Dist[goal])
					}
				}
			}
		})
	}
}

// TestGoalDirectedExpandsFewerBusc is the CI smoke for the whole point of
// goal-directed search: summed over real busc nets, the A*-guided stop-set
// search settles strictly fewer nodes than plain Dijkstra while returning
// identical terminal distances.
func TestGoalDirectedExpandsFewerBusc(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	fab, err := fpga.NewFabric(ckt.ArchAt(10))
	if err != nil {
		t.Fatal(err)
	}
	g := fab.Graph()
	b := fab.Bounds()
	sp, sb := graph.NewDijkstraScratch(), graph.NewDijkstraScratch()
	for _, net := range ckt.Nets {
		fab.BeginNet(net.Pins)
		terms := make([]graph.NodeID, len(net.Pins))
		for j, p := range net.Pins {
			terms[j] = fab.PinNode(p)
		}
		plain := g.DijkstraWithinScratch(sp, terms[0], terms)
		bounded := g.DijkstraWithinBounded(sb, terms[0], terms, b)
		for _, v := range terms {
			if plain.Dist[v] != bounded.Dist[v] {
				t.Fatalf("terminal %d: %v vs %v", v, bounded.Dist[v], plain.Dist[v])
			}
		}
	}
	if sb.Settled >= sp.Settled {
		t.Fatalf("goal-directed settled %d nodes, dijkstra %d — no pruning on busc", sb.Settled, sp.Settled)
	}
	t.Logf("busc: dijkstra settled %d, goal-directed %d (%.1f%%)",
		sp.Settled, sb.Settled, 100*float64(sb.Settled)/float64(sp.Settled))
}
