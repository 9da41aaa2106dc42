package router

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// resultsEqual asserts bit-identical routing results: same width, pass
// count, aggregate metrics and per-net trees.
func resultsEqual(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one result nil (%v vs %v)", tag, a, b)
	}
	if a == nil {
		return
	}
	if a.Width != b.Width || a.Passes != b.Passes || a.Routed != b.Routed {
		t.Fatalf("%s: width/passes/routed %d/%d/%v vs %d/%d/%v",
			tag, a.Width, a.Passes, a.Routed, b.Width, b.Passes, b.Routed)
	}
	if a.Wirelength != b.Wirelength || a.MaxPathSum != b.MaxPathSum || a.MaxUtil != b.MaxUtil {
		t.Fatalf("%s: metrics %v/%v/%d vs %v/%v/%d",
			tag, a.Wirelength, a.MaxPathSum, a.MaxUtil, b.Wirelength, b.MaxPathSum, b.MaxUtil)
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: net counts %d vs %d", tag, len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		ea, eb := a.Nets[i].Tree.Edges, b.Nets[i].Tree.Edges
		if len(ea) != len(eb) {
			t.Fatalf("%s net %d: tree sizes %d vs %d", tag, i, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s net %d edge %d: %d vs %d", tag, i, j, ea[j], eb[j])
			}
		}
	}
}

// checkMinimal asserts a width search's answer directly: w routes, the
// search's Result equals RouteCtx's at w, and w-1 is unroutable (or w is 1).
func checkMinimal(t *testing.T, ckt *circuits.Circuit, opts Options, w int, res *Result) {
	t.Helper()
	want, err := RouteCtx(nil, ckt, w, opts)
	if err != nil {
		t.Fatalf("returned width %d does not route: %v", w, err)
	}
	resultsEqual(t, fmt.Sprintf("width %d", w), want, res)
	if w == 1 {
		return
	}
	if _, err := RouteCtx(nil, ckt, w-1, opts); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("width %d is not minimal: width %d returned %v", w, w-1, err)
	}
}

// TestMinWidthIsMinimal checks the width search over several circuits,
// algorithms and start widths, below and above the answer: the returned
// width routes to the returned Result, and one less does not route.
func TestMinWidthIsMinimal(t *testing.T) {
	cases := []struct {
		name   string
		series circuits.Series
		seed   int64
		start  int
		opts   Options
	}{
		{"ikmb-start1", circuits.Series4000, 1, 1, Options{MaxPasses: 6}},
		{"ikmb-start8", circuits.Series4000, 1, 8, Options{MaxPasses: 6}},
		{"kmb", circuits.Series3000, 2, 2, Options{Algorithm: AlgKMB, MaxPasses: 6}},
		{"idom", circuits.Series3000, 3, 3, Options{Algorithm: AlgIDOM, MaxPasses: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckt := synth(t, tinySpec(tc.series), tc.seed)
			w, res, err := MinWidthCtx(nil, ckt, tc.start, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMinimal(t, ckt, tc.opts, w, res)
		})
	}
}

// TestMinWidthHardStartParity stresses the grow phase: MaxPasses 1 with
// move-to-front disabled keeps low widths failing for several steps, so
// the search has to skip past genuine ErrUnroutable outcomes before it
// settles; its answer must still equal a direct route at that width. A
// net that fails at every width (it names one pin twice, which
// steiner.CheckNet rejects in every construction) exhausts the width limit
// instead, with the limit in the error text.
func TestMinWidthHardStartParity(t *testing.T) {
	if testing.Short() {
		t.Skip("routes many widths")
	}
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	opts := Options{MaxPasses: 1, NoMoveToFront: true}
	w, res, err := MinWidthCtx(nil, ckt, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMinimal(t, ckt, opts, w, res)

	// The search gives up one width past 4*start+64.
	bad := *ckt
	bad.Nets = slices.Clone(ckt.Nets)
	bad.Nets[0].Pins = append(slices.Clone(bad.Nets[0].Pins), bad.Nets[0].Pins[0])
	_, res, err = MinWidthCtx(nil, &bad, 1, Options{MaxPasses: 1})
	want := fmt.Sprintf("router: %s unroutable up to width %d", ckt.Name, 4*1+64+1)
	if err == nil || err.Error() != want || res != nil {
		t.Fatalf("width-limit error %v (result %v), want %q", err, res, want)
	}
}

// TestMinWidthCtxStats checks that the collector counts one width probe per
// width the search visits. From start 1 the search grows through 1..w and
// then probes w-1 once more; from a start above the answer it routes the
// start, then every width down to w, then w-1.
func TestMinWidthCtxStats(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	opts := Options{MaxPasses: 6}
	for _, start := range []int{1, 9} {
		col := stats.New()
		ctx := NewContext(col)
		w, res, err := MinWidthCtx(ctx, ckt, start, opts)
		ctx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Routed || res.Width != w || w < 2 || w >= 9 {
			t.Fatalf("start %d: result %+v at width %d", start, res, w)
		}
		visited := int64(w + 1)
		if start > w {
			visited = int64(start - w + 2)
		}
		s := col.Snapshot()
		if s.WidthProbes != visited {
			t.Fatalf("start %d, answer %d: %d width probes, want %d", start, w, s.WidthProbes, visited)
		}
		if s.SSSPRuns == 0 || s.Passes == 0 || s.NetsRouted == 0 {
			t.Fatalf("collector missed work: %+v", s)
		}
	}
}
