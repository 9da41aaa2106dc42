package render

import (
	"strings"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/router"
)

func routedTiny(t *testing.T) (*router.Result, *fpga.Fabric, *circuits.Circuit) {
	t.Helper()
	spec := circuits.Spec{
		Name: "tiny", Series: circuits.Series4000, Cols: 4, Rows: 4,
		Nets2_3: 8, Nets4_10: 2,
	}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, fab, err := router.RouteWithFabricCtx(nil, ckt, 7, router.Options{MaxPasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	return res, fab, ckt
}

func TestUtilizationASCIIShape(t *testing.T) {
	_, fab, _ := routedTiny(t)
	out := UtilizationASCII(fab)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + alternating SB rows (Rows+1) and block rows (Rows).
	want := 1 + (fab.Rows + 1) + fab.Rows
	if len(lines) != want {
		t.Fatalf("lines = %d, want %d\n%s", len(lines), want, out)
	}
	// Every block row must contain the block marker.
	for i := 2; i < len(lines); i += 2 {
		if !strings.Contains(lines[i], ".") {
			t.Fatalf("block row %d missing '.': %q", i, lines[i])
		}
	}
	// Some span must be utilized.
	if !strings.ContainsAny(out, "123456789") {
		t.Fatal("no utilized spans rendered")
	}
}

func TestUtilizationDigitsRespectWidth(t *testing.T) {
	_, fab, _ := routedTiny(t)
	out := UtilizationASCII(fab)
	for _, c := range out {
		if c >= '0' && c <= '9' && int(c-'0') > fab.W {
			t.Fatalf("utilization digit %c exceeds channel width %d", c, fab.W)
		}
	}
}

func TestSVGWellFormed(t *testing.T) {
	res, fab, _ := routedTiny(t)
	svg := SVG(fab, res)
	for _, want := range []string{"<svg", "</svg>", "<rect", "<line", "stroke"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// One gray rect per logic block.
	if got := strings.Count(svg, `fill="#d8d8d8"`); got != fab.Cols*fab.Rows {
		t.Fatalf("blocks rendered = %d, want %d", got, fab.Cols*fab.Rows)
	}
	// Each routed net contributes at least one line.
	lines := strings.Count(svg, "<line")
	if lines == 0 {
		t.Fatal("no routed wires rendered")
	}
}

func TestNetColorsStableAndSpread(t *testing.T) {
	a, b := netColor(0), netColor(1)
	if a == b {
		t.Fatal("adjacent nets share a color")
	}
	if a != netColor(0) {
		t.Fatal("color not stable")
	}
}
