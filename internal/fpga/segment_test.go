package fpga

import (
	"testing"

	"fpgarouter/internal/graph"
)

func segArch(w int, lens []int) Arch {
	return Arch{Cols: 4, Rows: 4, W: w, Fs: 3, Fc: w, PinsPerSide: 1, SegLens: lens}
}

func TestSegLensValidation(t *testing.T) {
	if err := segArch(2, []int{1}).Validate(); err == nil {
		t.Fatal("length/width mismatch accepted")
	}
	if err := segArch(2, []int{1, 0}).Validate(); err == nil {
		t.Fatal("zero segment length accepted")
	}
	if err := segArch(2, []int{1, 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedWireCount(t *testing.T) {
	flat, err := NewFabric(segArch(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewFabric(segArch(2, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Track 1's wires halve (up to boundary remainders); strictly fewer
	// wires overall.
	if seg.NumWires() >= flat.NumWires() {
		t.Fatalf("segmented wires %d not below flat %d", seg.NumWires(), flat.NumWires())
	}
}

func TestSegmentedWireSpansAndClaim(t *testing.T) {
	f, err := NewFabric(segArch(2, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Find a length-2 wire: track 1 horizontal at row 0 spans (0,0)-(2,0).
	w := f.wireOf(f.HSpanIndex(0, 0), 1)
	if len(f.wireSpans[w]) != 2 {
		t.Fatalf("wire covers %d spans, want 2", len(f.wireSpans[w]))
	}
	// Both covered spans resolve back to the same wire.
	if f.wireOf(f.HSpanIndex(1, 0), 1) != w {
		t.Fatal("second span resolves to a different wire")
	}
	// Its single wire edge is 2 spans long.
	e := f.g.Edge(f.wireEdges[w][0])
	if e.W != 2*SegmentLength {
		t.Fatalf("wire edge length %v, want 2", e.W)
	}
	// Claiming it consumes capacity in both spans.
	f.CommitNet(graph.NewTree(f.g, []graph.EdgeID{f.wireEdges[w][0]}))
	if f.spanUsed[f.HSpanIndex(0, 0)] != 1 || f.spanUsed[f.HSpanIndex(1, 0)] != 1 {
		t.Fatal("claim did not consume both spans")
	}
}

func TestSegmentedTapWeightsReflectPosition(t *testing.T) {
	f, err := NewFabric(segArch(2, []int{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	// A pin whose span sits mid-wire on the long track must pay the
	// intra-wire distance to the far end: tap weights pos+0.5 and
	// (L-1-pos)+0.5 sum to L (the wire length).
	pin := Pin{X: 2, Y: 0, Side: South} // horizontal span (2,0), track 1 wire covers 0..4
	pn := f.PinNode(pin)
	var longTaps []float64
	for _, e := range f.pinTaps(pn) {
		w := f.edgeWire[e]
		if len(f.wireSpans[w]) > 1 {
			longTaps = append(longTaps, f.g.Weight(e))
		}
	}
	if len(longTaps) != 2 {
		t.Fatalf("expected 2 taps on the long wire, got %d", len(longTaps))
	}
	if got := longTaps[0] + longTaps[1]; got != 4*SegmentLength {
		t.Fatalf("tap weights %v sum to %v, want wire length 4", longTaps, got)
	}
}

func TestSegmentedFabricStillRoutesPins(t *testing.T) {
	f, err := NewFabric(segArch(4, []int{1, 1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	src := Pin{X: 0, Y: 0, Side: North}
	dst := Pin{X: 3, Y: 3, Side: South}
	f.BeginNet([]Pin{src, dst})
	spt := f.Graph().Dijkstra(f.PinNode(src))
	if !spt.Reachable(f.PinNode(dst)) {
		t.Fatal("segmented fabric disconnected")
	}
	tree := graph.NewTree(f.Graph(), spt.PathTo(f.PinNode(dst)))
	f.CommitNet(tree)
	if f.MaxSpanUtilization() < 1 {
		t.Fatal("no span consumed")
	}
}

func TestUnsegmentedBehaviourUnchanged(t *testing.T) {
	// SegLens nil and SegLens all-ones must build identical fabrics.
	a, err := NewFabric(segArch(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFabric(segArch(3, []int{1, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWires() != b.NumWires() || a.Graph().NumEdges() != b.Graph().NumEdges() {
		t.Fatal("all-ones segmentation differs from nil")
	}
	for id := 0; id < a.Graph().NumEdges(); id++ {
		if a.Graph().Weight(graph.EdgeID(id)) != b.Graph().Weight(graph.EdgeID(id)) {
			t.Fatalf("edge %d weight differs", id)
		}
	}
}

func TestSegmentedCongestionAvoidsWholeLongWire(t *testing.T) {
	f, err := NewFabric(segArch(2, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	f.CongestionAlpha = 2
	// Claim the short wire of span (0,0): the long wire crossing spans
	// (0,0) and (1,0) must get the congested weight, even for traversal
	// starting at span (1,0).
	short := f.wireOf(f.HSpanIndex(0, 0), 0)
	f.CommitNet(graph.NewTree(f.g, []graph.EdgeID{f.wireEdges[short][0]}))
	long := f.wireOf(f.HSpanIndex(1, 0), 1)
	e := f.wireEdges[long][0]
	if f.g.Weight(e) <= f.baseW[e] {
		t.Fatal("long wire not penalized by congestion in a crossed span")
	}
}
