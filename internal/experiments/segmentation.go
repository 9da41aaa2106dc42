package experiments

import (
	"fmt"
	"io"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// SegmentationRow compares one channel segmentation scheme on one circuit.
type SegmentationRow struct {
	Scheme     string
	Width      int // channel width used
	Routed     bool
	Wirelength float64
	MaxPath    float64 // sum over nets of max source-sink pathlength
	WiresUsed  int
	// Switches counts routing-graph edges over all routed trees — each
	// edge is one programmable switch crossing, the delay term long
	// segments exist to reduce.
	Switches int
}

// Segmentation studies segmented routing channels (the architecture
// extension of real Xilinx 4000 devices: double- and quad-length lines
// that skip intermediate switch blocks). The same circuit is routed at the
// same width under different per-track segment length mixes; longer
// segments reduce the switch crossings on long connections (lower path
// delay) at the price of capacity fragmentation (a long line is consumed
// whole even when one span of it is needed).
func Segmentation(circuit string, seed int64, width, passes int) ([]SegmentationRow, error) {
	spec, ok := circuits.SpecByName(circuit)
	if !ok {
		return nil, fmt.Errorf("segmentation: unknown circuit %q", circuit)
	}
	ckt, err := circuits.Synthesize(spec, seed)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		name string
		mix  func(w int) []int
	}{
		{"single (all length-1)", func(w int) []int { return nil }},
		{"quarter double", func(w int) []int {
			lens := make([]int, w)
			for t := range lens {
				lens[t] = 1
				if t%4 == 3 {
					lens[t] = 2
				}
			}
			return lens
		}},
		{"half double", func(w int) []int {
			lens := make([]int, w)
			for t := range lens {
				lens[t] = 1 + t%2
			}
			return lens
		}},
		{"double+quad mix", func(w int) []int {
			lens := make([]int, w)
			for t := range lens {
				switch t % 4 {
				case 0, 1:
					lens[t] = 1
				case 2:
					lens[t] = 2
				default:
					lens[t] = 4
				}
			}
			return lens
		}},
	}
	var rows []SegmentationRow
	for _, s := range schemes {
		res, fab, err := router.RouteWithFabricCtx(nil, ckt, width, router.Options{
			MaxPasses: passes,
			SegLens:   s.mix(width),
		})
		row := SegmentationRow{Scheme: s.name, Width: width}
		if err == nil {
			row.Routed = true
			row.Wirelength = res.Wirelength
			row.MaxPath = res.MaxPathSum
			for _, u := range fab.SpanUtilization() {
				row.WiresUsed += int(u)
			}
			for _, nr := range res.Nets {
				row.Switches += len(nr.Tree.Edges)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintSegmentation renders the segmentation study.
func PrintSegmentation(w io.Writer, circuit string, rows []SegmentationRow) {
	fmt.Fprintf(w, "Channel segmentation study on %s (same width, IKMB router):\n", circuit)
	fmt.Fprintf(w, "%-22s %6s %8s %12s %12s %10s %9s\n", "scheme", "W", "routed", "wirelength", "maxpath sum", "span-uses", "switches")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6d %8v %12.1f %12.1f %10d %9d\n",
			r.Scheme, r.Width, r.Routed, r.Wirelength, r.MaxPath, r.WiresUsed, r.Switches)
	}
	fmt.Fprintln(w, "longer segments cut switch crossings (delay) but fragment capacity (routability).")
}
