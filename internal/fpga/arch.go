// Package fpga models symmetrical-array (island-style) FPGAs — the
// architecture of Section 2 and Figure 1 of Alexander & Robins (DAC 1995) —
// and constructs the routing graph of Figure 2 that the router operates on.
//
// The model follows the standard academic abstraction the paper shares with
// the CGE, SEGA and GBP routers (Brown et al.): an array of logic blocks,
// routing channels of W parallel tracks between them, switch blocks of
// flexibility Fs at channel intersections, and connection blocks of
// flexibility Fc joining logic-block pins to adjacent tracks.
//
// Graph encoding. A node is created per (switch block, track) and per
// logic-block pin. A channel wire segment on track t between two adjacent
// switch blocks is an edge between the corresponding (SB, t) nodes, weighted
// by its wirelength. Collapsing a switch block's four same-track sides into
// one node encodes the classic "disjoint" switch pattern (Fs = 3: a wire on
// track t can turn onto track t of any other side); architectures with
// Fs = 6 additionally get cheap intra-switch-block edges between
// neighbouring tracks. Connection blocks become pin-to-(SB, t) tap edges on
// Fc of the W tracks of each adjacent channel span. Every tap and segment
// edge belongs to a wire — the unit of electrical capacity — and committing
// a net claims whole wires (see Fabric.CommitNet).
package fpga

import "fmt"

// Side identifies a logic block side / pin position.
type Side int

// Logic block sides in clockwise order.
const (
	North Side = iota
	East
	South
	West
)

func (s Side) String() string {
	switch s {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Side(%d)", int(s))
}

// Arch describes a symmetrical-array FPGA architecture.
type Arch struct {
	// Cols, Rows are the logic block array dimensions (e.g. busc is 12×13).
	Cols, Rows int
	// W is the channel width: the number of parallel tracks per channel.
	W int
	// Fs is the switch block flexibility: the number of other channel
	// edges a wire entering a switch block may connect to. The model
	// supports the two values used in the paper's experiments: 3 (the
	// disjoint pattern of the 4000-series tables) and 6 (3000-series,
	// disjoint plus neighbouring track on each side).
	Fs int
	// Fc is the connection block flexibility: how many of the W adjacent
	// tracks a logic block pin may connect to (1 ≤ Fc ≤ W).
	Fc int
	// PinsPerSide is the number of logic block pins per block side.
	PinsPerSide int
	// SegLens optionally assigns each track a wire segment length in
	// channel spans (nil = all single-length, the model of the paper's
	// experiments). A length-L wire is a single electrical wire spanning L
	// switch-block gaps, connecting only at its end switch blocks — the
	// double/long lines of real Xilinx 4000 channels. Lengths must be ≥ 1;
	// len(SegLens) must equal W when non-nil.
	SegLens []int
}

// SegLen returns the wire segment length of track t (1 when unsegmented).
func (a Arch) SegLen(t int) int {
	if a.SegLens == nil {
		return 1
	}
	return a.SegLens[t]
}

// Xilinx3000 returns the 3000-series architecture used in Table 2:
// Fs = 6 and Fc = ⌈0.6·W⌉.
func Xilinx3000(cols, rows, w int) Arch {
	fc := (6*w + 9) / 10 // ⌈0.6·w⌉
	if fc < 1 {
		fc = 1
	}
	return Arch{Cols: cols, Rows: rows, W: w, Fs: 6, Fc: fc, PinsPerSide: 2}
}

// Xilinx4000 returns the 4000-series architecture used in Tables 3–5:
// Fs = 3 (disjoint) and Fc = W.
func Xilinx4000(cols, rows, w int) Arch {
	return Arch{Cols: cols, Rows: rows, W: w, Fs: 3, Fc: w, PinsPerSide: 3}
}

// Validate reports whether the architecture parameters are consistent.
func (a Arch) Validate() error {
	switch {
	case a.Cols < 1 || a.Rows < 1:
		return fmt.Errorf("fpga: array %dx%d invalid", a.Cols, a.Rows)
	case a.W < 1:
		return fmt.Errorf("fpga: channel width %d invalid", a.W)
	case a.Fs != 3 && a.Fs != 6:
		return fmt.Errorf("fpga: Fs=%d unsupported (3 or 6)", a.Fs)
	case a.Fc < 1 || a.Fc > a.W:
		return fmt.Errorf("fpga: Fc=%d out of range [1,%d]", a.Fc, a.W)
	case a.PinsPerSide < 1:
		return fmt.Errorf("fpga: PinsPerSide=%d invalid", a.PinsPerSide)
	}
	if a.SegLens != nil {
		if len(a.SegLens) != a.W {
			return fmt.Errorf("fpga: %d segment lengths for width %d", len(a.SegLens), a.W)
		}
		for t, l := range a.SegLens {
			if l < 1 {
				return fmt.Errorf("fpga: track %d segment length %d invalid", t, l)
			}
		}
	}
	return nil
}

// Pin identifies a logic block pin: block coordinates, side, and the pin's
// index on that side.
type Pin struct {
	X, Y  int
	Side  Side
	Index int
}

func (p Pin) String() string {
	return fmt.Sprintf("(%d,%d).%v%d", p.X, p.Y, p.Side, p.Index)
}
