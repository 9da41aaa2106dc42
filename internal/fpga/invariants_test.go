package fpga

import (
	"testing"

	"fpgarouter/internal/graph"
)

// Structural invariants of fabric construction, checked across a spread of
// architectures (both families, several widths, with and without
// segmentation).
func TestFabricInvariants(t *testing.T) {
	archs := []Arch{
		Xilinx3000(3, 4, 5),
		Xilinx3000(5, 5, 9),
		Xilinx4000(4, 3, 4),
		Xilinx4000(6, 6, 7),
		{Cols: 4, Rows: 4, W: 4, Fs: 3, Fc: 2, PinsPerSide: 2, SegLens: []int{1, 2, 1, 4}},
	}
	for ai, a := range archs {
		f, err := NewFabric(a)
		if err != nil {
			t.Fatalf("arch %d: %v", ai, err)
		}
		g := f.Graph()

		// Every pin has exactly 2·Fc tap edges, each belonging to a wire.
		for y := 0; y < a.Rows; y++ {
			for x := 0; x < a.Cols; x++ {
				for _, side := range []Side{North, East, South, West} {
					for k := 0; k < a.PinsPerSide; k++ {
						pn := f.PinNode(Pin{X: x, Y: y, Side: side, Index: k})
						taps := f.pinTaps(pn)
						if len(taps) != 2*a.Fc {
							t.Fatalf("arch %d pin %v: %d taps, want %d", ai, pn, len(taps), 2*a.Fc)
						}
						for _, e := range taps {
							if f.edgeWire[e] == noWire {
								t.Fatalf("arch %d: tap edge %d has no wire", ai, e)
							}
						}
					}
				}
			}
		}

		// Wire bookkeeping is mutually consistent: every wire's edges map
		// back to it; every span/track resolves to a wire covering it.
		for w := range f.wireEdges {
			if len(f.wireEdges[w]) == 0 {
				t.Fatalf("arch %d: wire %d has no edges", ai, w)
			}
			for _, e := range f.wireEdges[w] {
				if f.edgeWire[e] != WireID(w) {
					t.Fatalf("arch %d: edge %d of wire %d maps to %d", ai, e, w, f.edgeWire[e])
				}
			}
			if len(f.wireSpans[w]) < 1 {
				t.Fatalf("arch %d: wire %d covers no spans", ai, w)
			}
		}
		for span := 0; span < f.numSpans; span++ {
			for tr := 0; tr < a.W; tr++ {
				w := f.wireOf(span, tr)
				found := false
				for _, s := range f.wireSpans[w] {
					if int(s) == span {
						found = true
					}
				}
				if !found {
					t.Fatalf("arch %d: span %d track %d resolves to wire %d not covering it", ai, span, tr, w)
				}
			}
		}

		// The base-weight table covers every edge and matches construction
		// weights.
		if len(f.baseW) != g.NumEdges() {
			t.Fatalf("arch %d: baseW has %d entries for %d edges", ai, len(f.baseW), g.NumEdges())
		}
		for id := 0; id < g.NumEdges(); id++ {
			if g.Weight(graph.EdgeID(id)) != f.baseW[id] {
				t.Fatalf("arch %d: fresh fabric edge %d weight differs from base", ai, id)
			}
		}

		// All switch-block/track nodes on a fresh fabric are reachable from
		// any SB node (channels + switch blocks form one component).
		comp := g.ConnectedComponent(f.sbNode(0, 0, 0))
		for j := 0; j <= a.Rows; j++ {
			for i := 0; i <= a.Cols; i++ {
				// Only track 0 is guaranteed connected to track 0 elsewhere
				// under Fs=3 (tracks are disjoint planes); check within the
				// plane.
				if !comp[f.sbNode(i, j, 0)] {
					t.Fatalf("arch %d: SB (%d,%d) track 0 disconnected", ai, i, j)
				}
			}
		}
	}
}

func TestFs3TracksAreDisjointPlanes(t *testing.T) {
	// Under the disjoint switch pattern (Fs=3) with no pins active, a
	// route entering on track t can never leave track t.
	f := mustFabric(t, Arch{Cols: 3, Rows: 3, W: 3, Fs: 3, Fc: 3, PinsPerSide: 1})
	f.BeginNet(nil) // all pins inactive: only channel wires remain
	comp := f.Graph().ConnectedComponent(f.sbNode(0, 0, 0))
	for tr := 1; tr < 3; tr++ {
		if comp[f.sbNode(0, 0, tr)] {
			t.Fatalf("track %d reachable from track 0 without pins or jogs", tr)
		}
	}
}

func TestFs6JogsJoinTracks(t *testing.T) {
	f := mustFabric(t, Arch{Cols: 3, Rows: 3, W: 3, Fs: 6, Fc: 3, PinsPerSide: 1})
	f.BeginNet(nil)
	comp := f.Graph().ConnectedComponent(f.sbNode(0, 0, 0))
	for tr := 1; tr < 3; tr++ {
		if !comp[f.sbNode(0, 0, tr)] {
			t.Fatalf("track %d not reachable under Fs=6", tr)
		}
	}
}
