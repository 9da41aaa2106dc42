package fpga

import (
	"testing"

	"fpgarouter/internal/graph"
)

func mustFabric(t *testing.T, a Arch) *Fabric {
	t.Helper()
	f, err := NewFabric(a)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func small4000(t *testing.T, w int) *Fabric {
	return mustFabric(t, Xilinx4000(3, 3, w))
}

func TestArchValidate(t *testing.T) {
	bad := []Arch{
		{Cols: 0, Rows: 1, W: 1, Fs: 3, Fc: 1, PinsPerSide: 1},
		{Cols: 1, Rows: 1, W: 0, Fs: 3, Fc: 1, PinsPerSide: 1},
		{Cols: 1, Rows: 1, W: 2, Fs: 4, Fc: 1, PinsPerSide: 1},
		{Cols: 1, Rows: 1, W: 2, Fs: 3, Fc: 3, PinsPerSide: 1},
		{Cols: 1, Rows: 1, W: 2, Fs: 3, Fc: 0, PinsPerSide: 1},
		{Cols: 1, Rows: 1, W: 2, Fs: 3, Fc: 1, PinsPerSide: 0},
	}
	for i, a := range bad {
		if a.Validate() == nil {
			t.Fatalf("case %d: invalid arch accepted: %+v", i, a)
		}
	}
	if err := Xilinx4000(3, 3, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Xilinx3000(3, 3, 5).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXilinxPresets(t *testing.T) {
	a := Xilinx3000(12, 13, 10)
	if a.Fs != 6 || a.Fc != 6 {
		t.Fatalf("3000 preset: %+v", a)
	}
	if c := Xilinx3000(5, 5, 5); c.W != 5 || c.Fc != 3 {
		t.Fatalf("3000 preset at W=5: %+v", c)
	}
	b := Xilinx4000(10, 10, 7)
	if b.Fs != 3 || b.Fc != 7 {
		t.Fatalf("4000 preset: %+v", b)
	}
}

func TestFabricShape(t *testing.T) {
	f := small4000(t, 2)
	// SB nodes: 4*4*2 = 32; pins: 3*3*4*3 = 108.
	if got := f.Graph().NumNodes(); got != 140 {
		t.Fatalf("nodes = %d, want 140", got)
	}
	// Wires: spans = 3*4 + 4*3 = 24, ×W=2 → 48.
	if f.NumWires() != 48 {
		t.Fatalf("wires = %d, want 48", f.NumWires())
	}
}

func TestPinNodeRoundTrip(t *testing.T) {
	f := small4000(t, 2)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			for _, s := range []Side{North, East, South, West} {
				for k := 0; k < f.PinsPerSide; k++ {
					p := Pin{X: x, Y: y, Side: s, Index: k}
					got, ok := f.PinOf(f.PinNode(p))
					if !ok || got != p {
						t.Fatalf("round trip %v -> %v (ok=%v)", p, got, ok)
					}
				}
			}
		}
	}
	if _, ok := f.PinOf(0); ok {
		t.Fatal("SB node misidentified as pin")
	}
}

func TestSBCoordsRoundTrip(t *testing.T) {
	f := small4000(t, 3)
	for j := 0; j <= 3; j++ {
		for i := 0; i <= 3; i++ {
			for tr := 0; tr < 3; tr++ {
				i2, j2, t2, ok := f.SBCoords(f.sbNode(i, j, tr))
				if !ok || i2 != i || j2 != j || t2 != tr {
					t.Fatalf("SBCoords(%d,%d,%d) = (%d,%d,%d,%v)", i, j, tr, i2, j2, t2, ok)
				}
			}
		}
	}
}

func TestPinsAreConnected(t *testing.T) {
	// Any two pins must be mutually reachable on a fresh fabric.
	f := small4000(t, 2)
	src := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	spt := f.Graph().Dijkstra(src)
	dst := f.PinNode(Pin{X: 2, Y: 2, Side: South, Index: 2})
	if !spt.Reachable(dst) {
		t.Fatal("pins not connected on fresh fabric")
	}
	// Distance should be roughly Manhattan: blocks are ~1 apart.
	if spt.Dist[dst] > 10 {
		t.Fatalf("pin-to-pin distance %v implausibly large", spt.Dist[dst])
	}
}

func TestFcLimitsPinTaps(t *testing.T) {
	// With Fc=1 each pin has exactly 2 tap edges (one track, both ends).
	f := mustFabric(t, Arch{Cols: 2, Rows: 2, W: 4, Fs: 3, Fc: 1, PinsPerSide: 1})
	pn := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	if d := f.Graph().Degree(pn); d != 2 {
		t.Fatalf("pin degree = %d, want 2", d)
	}
	f2 := mustFabric(t, Arch{Cols: 2, Rows: 2, W: 4, Fs: 3, Fc: 4, PinsPerSide: 1})
	pn2 := f2.PinNode(Pin{X: 0, Y: 0, Side: North})
	if d := f2.Graph().Degree(pn2); d != 8 {
		t.Fatalf("pin degree = %d, want 8", d)
	}
}

func TestFs6AddsJogs(t *testing.T) {
	a3 := mustFabric(t, Arch{Cols: 2, Rows: 2, W: 3, Fs: 3, Fc: 3, PinsPerSide: 1})
	a6 := mustFabric(t, Arch{Cols: 2, Rows: 2, W: 3, Fs: 6, Fc: 3, PinsPerSide: 1})
	if a6.Graph().NumEdges() <= a3.Graph().NumEdges() {
		t.Fatal("Fs=6 should add intra-switch-block jog edges")
	}
	// Jogs belong to no wire.
	foundJog := false
	for id := 0; id < a6.Graph().NumEdges(); id++ {
		if a6.WireOfEdge(graph.EdgeID(id)) == noWire {
			foundJog = true
			if a6.Graph().Weight(graph.EdgeID(id)) != JogLength {
				t.Fatal("jog edge has wrong weight")
			}
		}
	}
	if !foundJog {
		t.Fatal("no jog edges found")
	}
}

func TestCommitNetClaimsWholeWires(t *testing.T) {
	f := small4000(t, 2)
	// Route pin (0,0).N to pin (1,0).N greedily via Dijkstra and commit.
	src := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	dst := f.PinNode(Pin{X: 1, Y: 0, Side: North})
	spt := f.Graph().Dijkstra(src)
	tr := graph.NewTree(f.Graph(), spt.PathTo(dst))
	wires := f.CommitNet(tr)
	if len(wires) == 0 {
		t.Fatal("no wires claimed")
	}
	for _, w := range wires {
		for _, e := range f.wireEdges[w] {
			if f.Graph().Enabled(e) {
				t.Fatal("edge of claimed wire still enabled")
			}
		}
	}
	if f.MaxSpanUtilization() == 0 {
		t.Fatal("span utilization not updated")
	}
}

func TestCommitNetCongestionWeights(t *testing.T) {
	f := small4000(t, 2)
	f.CongestionAlpha = 2.0
	src := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	dst := f.PinNode(Pin{X: 1, Y: 0, Side: North})
	spt := f.Graph().Dijkstra(src)
	f.CommitNet(graph.NewTree(f.Graph(), spt.PathTo(dst)))
	// Some enabled segment edge must now cost more than its base length.
	raised := false
	for id := 0; id < f.Graph().NumEdges(); id++ {
		e := graph.EdgeID(id)
		if f.Graph().Enabled(e) && f.Graph().Weight(e) > f.baseW[id]+1e-12 {
			raised = true
			break
		}
	}
	if !raised {
		t.Fatal("congestion weights not applied")
	}
}

func TestResetRestoresFabric(t *testing.T) {
	f := small4000(t, 2)
	src := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	dst := f.PinNode(Pin{X: 2, Y: 2, Side: South})
	spt := f.Graph().Dijkstra(src)
	f.CommitNet(graph.NewTree(f.Graph(), spt.PathTo(dst)))
	f.Reset()
	if f.MaxSpanUtilization() != 0 {
		t.Fatal("span usage not reset")
	}
	for id := 0; id < f.Graph().NumEdges(); id++ {
		e := graph.EdgeID(id)
		if !f.Graph().Enabled(e) {
			t.Fatal("edge still disabled after reset")
		}
		if f.Graph().Weight(e) != f.baseW[id] {
			t.Fatal("weight not restored after reset")
		}
	}
}

func TestSBCandidatesClipping(t *testing.T) {
	f := small4000(t, 2)
	all := f.SBCandidates(-5, 100, -5, 100)
	if len(all) != (3+1)*(3+1)*2 {
		t.Fatalf("candidates = %d", len(all))
	}
	one := f.SBCandidates(1, 1, 1, 1)
	if len(one) != 2 {
		t.Fatalf("single SB candidates = %d, want W=2", len(one))
	}
}

func TestBaseWirelengthIgnoresCongestion(t *testing.T) {
	f := small4000(t, 2)
	f.CongestionAlpha = 5
	src := f.PinNode(Pin{X: 0, Y: 0, Side: North})
	spt := f.Graph().Dijkstra(src)
	dst := f.PinNode(Pin{X: 2, Y: 0, Side: North})
	tr := graph.NewTree(f.Graph(), spt.PathTo(dst))
	base := f.BaseWirelength(tr)
	f.CommitNet(tr)
	if f.BaseWirelength(tr) != base {
		t.Fatal("base wirelength changed after commit")
	}
}
