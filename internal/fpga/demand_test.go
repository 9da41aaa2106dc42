package fpga

import (
	"testing"

	"fpgarouter/internal/graph"
)

func TestAddPinDemandRaisesSpanWeights(t *testing.T) {
	f := mustFabric(t, Xilinx4000(3, 3, 2))
	f.DemandBeta, f.DemandGamma = 1, 0.5
	pin := Pin{X: 1, Y: 1, Side: North}
	span, sbA, _ := f.pinSpan(pin)
	_ = sbA
	before := make(map[graph.EdgeID]float64)
	for t2 := 0; t2 < f.W; t2++ {
		w := f.wireOf(span, t2)
		for _, e := range f.wireEdges[w] {
			before[e] = f.g.Weight(e)
		}
	}
	f.AddPinDemand(pin, +1)
	raised := false
	for e, w0 := range before {
		if f.g.Weight(e) > w0 {
			raised = true
		}
		if f.g.Weight(e) < w0-1e-12 {
			t.Fatal("demand lowered a weight")
		}
	}
	if !raised {
		t.Fatal("pin demand did not raise any span weight")
	}
	// Releasing the demand restores the original weights.
	f.AddPinDemand(pin, -1)
	for e, w0 := range before {
		if f.g.Weight(e) != w0 {
			t.Fatalf("weight not restored after release: edge %d", e)
		}
	}
}

func TestDemandGammaPrefersUndemandedWires(t *testing.T) {
	f := mustFabric(t, Xilinx4000(3, 3, 4))
	f.DemandBeta, f.DemandGamma = 0, 1 // isolate the per-wire term
	pin := Pin{X: 1, Y: 1, Side: North}
	f.AddPinDemand(pin, +1)
	span, _, _ := f.pinSpan(pin)
	pn := f.PinNode(pin)
	demanded := make(map[WireID]bool)
	for _, w := range f.pinWires(pn) {
		demanded[w] = true
	}
	// Wires of the span the pin taps must cost more than its other wires.
	var demandedW, otherW float64
	var nd, no int
	for t2 := 0; t2 < f.W; t2++ {
		w := f.wireOf(span, t2)
		for _, e := range f.wireEdges[w] {
			if f.baseW[e] != SegmentLength {
				continue // compare segment edges only
			}
			if demanded[w] {
				demandedW += f.g.Weight(e)
				nd++
			} else {
				otherW += f.g.Weight(e)
				no++
			}
		}
	}
	if nd == 0 || no == 0 {
		t.Skip("Fc covers all tracks; no undemanded wire to compare")
	}
	if demandedW/float64(nd) <= otherW/float64(no) {
		t.Fatal("demanded wires not more expensive than undemanded ones")
	}
}

func TestDemandScarcityGrowsWithUtilization(t *testing.T) {
	f := mustFabric(t, Xilinx4000(3, 3, 3))
	f.DemandBeta, f.DemandGamma = 1, 0
	pin := Pin{X: 0, Y: 0, Side: North}
	span, _, _ := f.pinSpan(pin)
	f.AddPinDemand(pin, +1)
	// Weight of a free segment edge in the span before and after claiming
	// a sibling wire.
	pickFree := func() (graph.EdgeID, bool) {
		for t2 := 0; t2 < f.W; t2++ {
			w := f.wireOf(span, t2)
			if f.claimed[w] {
				continue
			}
			for _, e := range f.wireEdges[w] {
				if f.baseW[e] == SegmentLength {
					return e, true
				}
			}
		}
		return 0, false
	}
	e0, ok := pickFree()
	if !ok {
		t.Fatal("no free edge")
	}
	w0 := f.g.Weight(e0)
	// Claim one wire of the span directly through CommitNet.
	var victim graph.EdgeID
	for t2 := 0; t2 < f.W; t2++ {
		w := f.wireOf(span, t2)
		victim = f.wireEdges[w][0]
		break
	}
	f.CommitNet(graph.NewTree(f.g, []graph.EdgeID{victim}))
	e1, ok := pickFree()
	if !ok {
		t.Skip("span exhausted")
	}
	if f.g.Weight(e1) <= w0 {
		t.Fatalf("scarcity did not grow: %v then %v", w0, f.g.Weight(e1))
	}
}

func TestBeginNetDisablesForeignPins(t *testing.T) {
	f := mustFabric(t, Xilinx4000(3, 3, 2))
	mine := Pin{X: 0, Y: 0, Side: North}
	other := Pin{X: 2, Y: 2, Side: South}
	f.BeginNet([]Pin{mine})
	if f.g.Degree(f.PinNode(mine)) == 0 {
		t.Fatal("own pin disabled")
	}
	if f.g.Degree(f.PinNode(other)) != 0 {
		t.Fatal("foreign pin still enabled")
	}
	// Switching nets flips the roles.
	f.BeginNet([]Pin{other})
	if f.g.Degree(f.PinNode(other)) == 0 || f.g.Degree(f.PinNode(mine)) != 0 {
		t.Fatal("BeginNet did not switch active pins")
	}
}

func TestBeginNetKeepsClaimedTapsDisabled(t *testing.T) {
	f := mustFabric(t, Xilinx4000(3, 3, 1)) // W=1: single wire per span
	pin := Pin{X: 1, Y: 1, Side: North}
	pn := f.PinNode(pin)
	// Claim the pin's only tap wire by committing a tree using it.
	f.BeginNet([]Pin{pin})
	tap := f.pinTaps(pn)[0]
	f.CommitNet(graph.NewTree(f.g, []graph.EdgeID{tap}))
	f.BeginNet([]Pin{pin})
	for _, e := range f.pinTaps(pn) {
		if f.edgeWire[e] == f.edgeWire[tap] && f.g.Enabled(e) {
			t.Fatal("tap edge of a claimed wire re-enabled by BeginNet")
		}
	}
}
