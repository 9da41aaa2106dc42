package experiments

import (
	"strings"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

func rowByName(rows []Table1Row, name string) Table1Row {
	for _, r := range rows {
		if r.Alg == name {
			return r
		}
	}
	panic("missing row " + name)
}

func TestTable1Shape(t *testing.T) {
	blocks, err := Table1(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 6 {
		t.Fatalf("blocks = %d, want 6 (3 levels × 2 net sizes)", len(blocks))
	}
	for _, b := range blocks {
		if len(b.Rows) != 8 {
			t.Fatalf("rows = %d, want 8", len(b.Rows))
		}
		kmb := rowByName(b.Rows, "KMB")
		if kmb.WirePct != 0 {
			t.Fatalf("KMB wire%% = %v, must be 0 by normalization", kmb.WirePct)
		}
		// Iterated constructions never lose to their bases (per instance,
		// hence also on average).
		if ikmb := rowByName(b.Rows, "IKMB"); ikmb.WirePct > 1e-9 {
			t.Fatalf("IKMB average wire%% %v above KMB", ikmb.WirePct)
		}
		if zel, izel := rowByName(b.Rows, "ZEL"), rowByName(b.Rows, "IZEL"); izel.WirePct > zel.WirePct+1e-9 {
			t.Fatalf("IZEL %v worse than ZEL %v", izel.WirePct, zel.WirePct)
		}
		// Arborescences have optimal max pathlength by construction.
		for _, name := range []string{"DJKA", "DOM", "PFA", "IDOM"} {
			if r := rowByName(b.Rows, name); r.MaxPathPct > 1e-9 {
				t.Fatalf("%s max path %% = %v, want 0", name, r.MaxPathPct)
			}
		}
		// PFA folds paths, DJKA doesn't: PFA must not use more wire.
		if pfa, djka := rowByName(b.Rows, "PFA"), rowByName(b.Rows, "DJKA"); pfa.WirePct > djka.WirePct+1e-9 {
			t.Fatalf("PFA %v worse than DJKA %v", pfa.WirePct, djka.WirePct)
		}
		// IDOM never loses to DOM.
		if idom, dom := rowByName(b.Rows, "IDOM"), rowByName(b.Rows, "DOM"); idom.WirePct > dom.WirePct+1e-9 {
			t.Fatalf("IDOM %v worse than DOM %v", idom.WirePct, dom.WirePct)
		}
		if b.MeanEdge < 1 {
			t.Fatalf("mean edge weight %v below 1", b.MeanEdge)
		}
	}
	// Congestion raises the measured mean edge weight monotonically.
	if !(blocks[0].MeanEdge < blocks[2].MeanEdge && blocks[2].MeanEdge < blocks[4].MeanEdge) {
		t.Fatalf("congestion levels not increasing: %v %v %v",
			blocks[0].MeanEdge, blocks[2].MeanEdge, blocks[4].MeanEdge)
	}
}

func TestFigure4MatchesPaperShape(t *testing.T) {
	r, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if r.KMBWire <= r.IGMSTWire {
		t.Fatal("KMB must pay extra wirelength on the Figure 4 instance")
	}
	if r.IGMSTWire != r.OptWire || r.IDOMWire != r.OptWire {
		t.Fatal("IGMST/IDOM must be wirelength-optimal on the found instance")
	}
	if r.IDOMMaxPath != r.OptMaxPath {
		t.Fatal("IDOM must have optimal max pathlength")
	}
	if r.WireImprovePct <= 0 || r.IDOMPathImpPct <= 0 {
		t.Fatalf("improvements must be positive: %+v", r)
	}
}

func TestFigure10PFARatioGrows(t *testing.T) {
	rows, err := Figure10([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rows[2].PFARatio <= rows[1].PFARatio || rows[1].PFARatio <= rows[0].PFARatio {
		t.Fatalf("PFA ratio not growing: %+v", rows)
	}
	if rows[2].PFARatio < 1.5 {
		t.Fatalf("PFA ratio %v too small for the worst-case family", rows[2].PFARatio)
	}
	for _, r := range rows {
		if r.IDOMRati > 1.0+1e-9 {
			t.Fatalf("IDOM must solve the Figure 10 family optimally, got ratio %v", r.IDOMRati)
		}
	}
}

func TestFigure11RatioGrows(t *testing.T) {
	rows, err := Figure11([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Ratio <= rows[0].Ratio {
		t.Fatalf("staircase ratio not growing: %+v", rows)
	}
	if rows[1].Ratio >= 2.0 {
		t.Fatalf("ratio %v exceeds PFA's grid bound of 2", rows[1].Ratio)
	}
}

func TestFigure14IDOMRatioGrows(t *testing.T) {
	rows, err := Figure14([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(rows[0].Ratio < rows[1].Ratio && rows[1].Ratio < rows[2].Ratio) {
		t.Fatalf("IDOM ratio not growing logarithmically: %+v", rows)
	}
	// Greedy selects all m bait boxes: cost ≈ m + N·ε.
	if rows[2].IDOM < float64(rows[2].BaitBoxes) {
		t.Fatalf("IDOM cost %v below bait-box count %d", rows[2].IDOM, rows[2].BaitBoxes)
	}
}

func TestFigure16RendersBusc(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a full benchmark circuit")
	}
	col := stats.New()
	r, err := Figure16(RouterConfig{Seed: 1, Options: router.Options{MaxPasses: 8}, Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 16 routes under the sweep's collector, so tables -stats
	// counts its passes.
	if col.Snapshot().Passes == 0 {
		t.Fatal("the sweep's collector recorded no passes")
	}
	if r.Width > 10 {
		t.Fatalf("busc needed width %d; published CGE result is 10", r.Width)
	}
	if !strings.Contains(r.SVG, "<svg") || !strings.Contains(r.SVG, "line") {
		t.Fatal("SVG missing expected elements")
	}
	if !strings.Contains(r.ASCII, "channel utilization") {
		t.Fatal("ASCII render missing header")
	}
}

func TestMinWidthTerm1BeatsPublished(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a minimum-width search")
	}
	spec, _ := circuits.SpecByName("term1")
	row, err := minWidthFor(spec, router.AlgIKMB, RouterConfig{Seed: 1, Options: router.Options{MaxPasses: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// The trend of Tables 3: our router needs no more width than the
	// published SEGA/GBP results.
	if row.MinWidth > spec.SEGA || row.MinWidth > spec.GBP {
		t.Fatalf("term1 min width %d exceeds published SEGA %d / GBP %d",
			row.MinWidth, spec.SEGA, spec.GBP)
	}
}

func TestTable5MetricsSingleCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a benchmark circuit three times")
	}
	spec, _ := circuits.SpecByName("term1")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*router.Result{}
	for _, alg := range []string{router.AlgIKMB, router.AlgPFA, router.AlgIDOM} {
		res, err := router.Route(ckt, spec.Table5W, router.Options{Algorithm: alg, MaxPasses: 8})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		results[alg] = res
	}
	base := results[router.AlgIKMB]
	// The arborescence routers must not lengthen critical paths on
	// average (Table 5's headline: they shorten them).
	for _, alg := range []string{router.AlgPFA, router.AlgIDOM} {
		if d := avgPathDelta(results[alg], base); d > 1.0 {
			t.Fatalf("%s average max-path change %+.2f%% vs IKMB; expected ≤ 0-ish", alg, d)
		}
	}
}

func TestTradeoffShape(t *testing.T) {
	rows, err := Tradeoff(1, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TradeoffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Tuned fully toward pathlength, the trade-off methods sit at optimal
	// radius; PFA/IDOM match that radius with no more wirelength.
	for _, name := range []string{"PD(c=1.00)", "BRBC(e=0.00)", "PFA", "IDOM", "DJKA"} {
		if r, ok := byName[name]; !ok || r.RadiusPct > 1e-9 {
			t.Fatalf("%s radius%% = %+v (ok=%v), want 0", name, byName[name], ok)
		}
	}
	if byName["PFA"].WirePct > byName["PD(c=1.00)"].WirePct+1e-9 {
		t.Fatalf("PFA wire %v above PD(1) %v", byName["PFA"].WirePct, byName["PD(c=1.00)"].WirePct)
	}
	if byName["PFA"].WirePct > byName["BRBC(e=0.00)"].WirePct+1e-9 {
		t.Fatalf("PFA wire %v above BRBC(0) %v", byName["PFA"].WirePct, byName["BRBC(e=0.00)"].WirePct)
	}
	// PD(0) is the distance-graph MST: it matches KMB's wirelength.
	if pd0 := byName["PD(c=0.00)"]; pd0.WirePct > 1e-6 {
		t.Fatalf("PD(0) wire%% = %v, want ≈ 0 (KMB-like)", pd0.WirePct)
	}
}

func TestSegmentationStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a benchmark circuit several times")
	}
	rows, err := Segmentation("term1", 1, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[0].Routed {
		t.Fatal("single-length scheme must route at the generous width")
	}
	// Longer segments cannot increase the switch count per wirelength;
	// where both route, the segmented scheme uses fewer tree edges.
	for _, r := range rows[1:] {
		if r.Routed && r.Switches >= rows[0].Switches && r.Wirelength <= rows[0].Wirelength {
			t.Fatalf("segmentation gave more switches at no extra wirelength: %+v vs %+v", r, rows[0])
		}
	}
}

// TestPrintPathfinderTable pins the tables -pathfinder layout: a header
// naming the machine parallelism and the commit, one Markdown row per
// circuit with the wirelength difference relative to the sequential
// router, and a totals row.
func TestPrintPathfinderTable(t *testing.T) {
	busc, _ := circuits.SpecByName("busc")
	dma, _ := circuits.SpecByName("dma")
	rows := []PathfinderRow{
		{Spec: busc, Iterations: 17, ParWL: 990, SeqWL: 1000, ParTime: 1500 * time.Millisecond, SeqTime: 500 * time.Millisecond},
		{Spec: dma, Iterations: 20, ParWL: 2020, SeqWL: 2000, ParTime: 2 * time.Second, SeqTime: time.Second},
	}
	var b strings.Builder
	PrintPathfinderTable(&b, rows, 2, "abc123")
	out := b.String()
	for _, want := range []string{
		"(gomaxprocs 2, commit abc123)",
		"| busc | 7 | 17 | 990.0 | 1000.0 | -1.00 % | 1.50 s | 0.50 s |",
		"| dma | 9 | 20 | 2020.0 | 2000.0 | +1.00 % | 2.00 s | 1.00 s |",
		"| total | | | 3010.0 | 3000.0 | +0.33 % | 3.50 s | 1.50 s |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
