package router

import (
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
)

// TestWithDefaultsSentinels pins down the zero-value collision fix: a plain
// 0 still selects the documented default, while router.Zero (any negative
// value) survives normalization as an explicit zero.
func TestWithDefaultsSentinels(t *testing.T) {
	cases := []struct {
		name      string
		in        Options
		wantBBox  int
		wantAlpha float64
	}{
		{"zero-value-defaults", Options{}, 2, 1.0},
		{"explicit-zero-margin", Options{BBoxMargin: Zero}, 0, 1.0},
		{"explicit-zero-alpha", Options{CongestionAlpha: Zero}, 2, 0},
		{"both-explicit-zero", Options{BBoxMargin: Zero, CongestionAlpha: Zero}, 0, 0},
		{"negative-means-zero", Options{BBoxMargin: -7, CongestionAlpha: -0.5}, 0, 0},
		{"positive-preserved", Options{BBoxMargin: 5, CongestionAlpha: 2.5}, 5, 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults()
			if got.BBoxMargin != tc.wantBBox {
				t.Fatalf("BBoxMargin = %d, want %d", got.BBoxMargin, tc.wantBBox)
			}
			if got.CongestionAlpha != tc.wantAlpha {
				t.Fatalf("CongestionAlpha = %v, want %v", got.CongestionAlpha, tc.wantAlpha)
			}
			if got.Algorithm != AlgIKMB && tc.in.Algorithm == "" {
				t.Fatalf("Algorithm default = %q", got.Algorithm)
			}
			if got.MaxPasses != 20 && tc.in.MaxPasses == 0 {
				t.Fatalf("MaxPasses default = %d", got.MaxPasses)
			}
		})
	}
}

// TestExplicitZeroAlphaReachesFabric proves the sentinel survives the whole
// entry path: RouteWithFabricCtx with CongestionAlpha: Zero must build a
// fabric with congestion weighting disabled, where the plain zero value
// enables the default weighting.
func TestExplicitZeroAlphaReachesFabric(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	check := func(opts Options, want float64) *fpga.Fabric {
		t.Helper()
		_, fab, err := RouteWithFabricCtx(nil, ckt, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fab.CongestionAlpha != want {
			t.Fatalf("fabric CongestionAlpha = %v, want %v", fab.CongestionAlpha, want)
		}
		return fab
	}
	check(Options{MaxPasses: 8}, 1.0)
	check(Options{MaxPasses: 8, CongestionAlpha: Zero}, 0)
	check(Options{MaxPasses: 8, CongestionAlpha: 0.25}, 0.25)
}

// TestMinWidthPreservesExplicitZeros guards against double normalization: a
// width search issues many Route calls, and an explicit zero must not be
// promoted back to the default on any of them. Normalizing twice would turn
// CongestionAlpha: Zero into the default weighting, so the search's widths
// and Result would stop matching direct routes under the same options.
func TestMinWidthPreservesExplicitZeros(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 2)
	opts := Options{MaxPasses: 6, CongestionAlpha: Zero}
	w, res, err := MinWidthCtx(nil, ckt, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMinimal(t, ckt, opts, w, res)
}
