package fpga

import (
	"math/rand"
	"testing"

	"fpgarouter/internal/graph"
)

// fullPassBeginNet is BeginNet as a pass over every pin: each tap is
// enabled exactly when its pin is one of the net's and its wire is
// unclaimed. The incremental BeginNet must leave the same enables.
func fullPassBeginNet(f *Fabric, pins []Pin) {
	active := make(map[graph.NodeID]bool, len(pins))
	for _, p := range pins {
		active[f.PinNode(p)] = true
	}
	lo, hi := f.PinNodeRange()
	for pn := lo; pn < hi; pn++ {
		for _, e := range f.pinTaps(pn) {
			f.g.SetEnabled(e, active[pn] && !f.claimed[f.edgeWire[e]])
		}
	}
}

// TestIncrementalBeginNetParity drives two busc fabrics (12×13 blocks,
// Xilinx 3000 series, paper width 7) through the same random sequence of
// Reset, BeginNet, CommitNet and AddPinDemand calls, one with BeginNet and
// one with fullPassBeginNet. After every call both must hold the same
// edges, enable bits and weights, and every node's pin-tail count (see
// graph.SetPinBoundary) must equal a recount.
func TestIncrementalBeginNetParity(t *testing.T) {
	arch := Xilinx3000(12, 13, 7)
	f, ref := mustFabric(t, arch), mustFabric(t, arch)
	rng := rand.New(rand.NewSource(1))
	randomPin := func() Pin {
		return Pin{X: rng.Intn(arch.Cols), Y: rng.Intn(arch.Rows), Side: Side(rng.Intn(4)), Index: rng.Intn(arch.PinsPerSide)}
	}
	var pins, demanded []Pin
	for step := 0; step < 400; step++ {
		var op string
		switch k := rng.Intn(10); {
		case k == 0:
			op = "Reset"
			f.Reset()
			ref.Reset()
			demanded = demanded[:0]
		case k < 5:
			op = "BeginNet"
			pins = pins[:0]
			for n := 2 + rng.Intn(9); n > 0; n-- {
				pins = append(pins, randomPin())
			}
			f.BeginNet(pins)
			fullPassBeginNet(ref, pins)
		case k < 8:
			// Commit a path between two of the current net's pins, found
			// on the incremental fabric's state.
			op = "CommitNet"
			if len(pins) < 2 {
				continue
			}
			src, dst := f.PinNode(pins[0]), f.PinNode(pins[1])
			path := f.g.DijkstraWithin(src, []graph.NodeID{dst}).PathTo(dst)
			if len(path) == 0 {
				continue
			}
			tree := graph.NewTree(f.g, path)
			f.CommitNet(tree)
			ref.CommitNet(tree)
		default:
			op = "AddPinDemand"
			if len(demanded) == 0 || rng.Intn(2) == 0 {
				p := randomPin()
				demanded = append(demanded, p)
				f.AddPinDemand(p, +1)
				ref.AddPinDemand(p, +1)
			} else {
				p := demanded[len(demanded)-1]
				demanded = demanded[:len(demanded)-1]
				f.AddPinDemand(p, -1)
				ref.AddPinDemand(p, -1)
			}
		}
		for id := 0; id < f.g.NumEdges(); id++ {
			if a, b := f.g.Edge(graph.EdgeID(id)), ref.g.Edge(graph.EdgeID(id)); a != b {
				t.Fatalf("step %d (%s): edge %d is %+v, full-pass BeginNet leaves %+v", step, op, id, a, b)
			}
		}
		lo, _ := f.PinNodeRange()
		for u := 0; u < f.g.NumNodes(); u++ {
			adj := f.g.Adj(graph.NodeID(u))
			start := len(adj)
			for start > 0 && adj[start-1].To >= lo {
				start--
			}
			on := 0
			for _, a := range adj[start:] {
				if f.g.Enabled(a.ID) {
					on++
				}
			}
			if tail, got := f.g.PinTail(graph.NodeID(u)); len(tail) != len(adj)-start || got != on {
				t.Fatalf("step %d (%s): node %d records a pin tail of %d arcs, %d enabled; recount %d, %d",
					step, op, u, len(tail), got, len(adj)-start, on)
			}
		}
	}
}
