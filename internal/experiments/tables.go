package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

// progress emits a coarse progress line to stderr so long sweeps are
// observable; cmd/tables runs can take tens of minutes per table.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%s] ", time.Now().Format("15:04:05"))
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// RouterConfig bundles the knobs shared by the router-based experiments
// (Tables 2–5). The zero value is completed with the paper's settings.
type RouterConfig struct {
	Seed      int64 // circuit synthesis seed
	MaxPasses int   // feasibility threshold (paper: 20)
	// Stats, when non-nil, accumulates router work counters (SSSP runs,
	// rip-ups, width probes, …) across every routing call of the sweep.
	Stats *stats.Collector
	// Ctx, when non-nil, bounds the sweep: its cancellation (cmd/tables
	// -timeout) abandons in-flight routing at the router's pass/net
	// boundaries with router.ErrCanceled.
	Ctx context.Context
	// CandidateWorkers is forwarded to router.Options.CandidateWorkers for
	// every routing call of the sweep (0 = GOMAXPROCS capped at 8, 1 =
	// sequential; results are identical at every setting).
	CandidateWorkers int
	// SingleStep is forwarded to router.Options.SingleStep: one-candidate-
	// per-round Steiner admission (the paper's Figure 5 template) instead
	// of the router's default batched admission.
	SingleStep bool
	// LazyScan is forwarded to router.Options.LazyScan for every routing
	// call of the sweep: the lazy-greedy candidate scan with exactness
	// fallback (results identical on or off; only evaluation counts
	// change). Arms under SingleStep; inert for batched admission.
	LazyScan bool
	// GoalDirected is forwarded to router.Options.GoalDirected: A* toward
	// each net's stop set under the fabric's coordinate lower bound, and
	// bidirectional Dijkstra for 2-pin nets. Costs stay exact; among
	// equal-cost shortest paths the goal-directed searches may choose
	// differently, so tables can deviate within ties.
	GoalDirected bool
	// Parallel is forwarded to router.Options.Parallel: the net-parallel
	// negotiated-congestion router (internal/pathfinder) instead of the
	// sequential rip-up/re-route loop. Only the kmb/ikmb algorithms
	// support it; sweeps over other algorithms fail with a clear error.
	Parallel bool
	// NetWorkers is forwarded to router.Options.NetWorkers: net-routing
	// goroutines per pathfinder iteration (0 = GOMAXPROCS capped at 8;
	// results are identical for any worker count).
	NetWorkers int
}

func (c RouterConfig) withDefaults() RouterConfig {
	// Parallel mode keeps MaxPasses 0 so router.Options picks its own,
	// larger iteration budget (pathfinder iterations are much cheaper
	// than full rip-up passes).
	if c.MaxPasses == 0 && !c.Parallel {
		c.MaxPasses = 20
	}
	return c
}

// WidthRow is one circuit's minimum-channel-width result.
type WidthRow struct {
	Spec     circuits.Spec
	MinWidth int
	Passes   int // passes used at the minimum width
}

// minWidthFor synthesizes the circuit and searches its minimum channel
// width for the given algorithm, starting near the paper's own result.
func minWidthFor(spec circuits.Spec, alg string, cfg RouterConfig) (WidthRow, error) {
	ckt, err := circuits.Synthesize(spec, cfg.Seed)
	if err != nil {
		return WidthRow{}, err
	}
	start := spec.PaperIKMB
	switch alg {
	case router.AlgPFA:
		if spec.PaperPFA > 0 {
			start = spec.PaperPFA
		}
	case router.AlgIDOM:
		if spec.PaperIDOM > 0 {
			start = spec.PaperIDOM
		}
	}
	if start < 2 {
		start = 6
	}
	progress("min-width search: %s with %s (start %d)", spec.Name, alg, start)
	ctx := router.NewContext(cfg.Stats)
	defer ctx.Close()
	w, res, _, err := router.MinWidthContext(cfg.Ctx, ctx, ckt, start, router.Options{
		Algorithm:        alg,
		MaxPasses:        cfg.MaxPasses,
		CandidateWorkers: cfg.CandidateWorkers,
		SingleStep:       cfg.SingleStep,
		LazyScan:         cfg.LazyScan,
		GoalDirected:     cfg.GoalDirected,
		Parallel:         cfg.Parallel,
		NetWorkers:       cfg.NetWorkers,
	})
	if err != nil {
		return WidthRow{}, fmt.Errorf("%s/%s: %w", spec.Name, alg, err)
	}
	progress("  -> %s/%s: width %d", spec.Name, alg, w)
	return WidthRow{Spec: spec, MinWidth: w, Passes: res.Passes}, nil
}

// Table2 reproduces Table 2: minimum channel width of the five 3000-series
// circuits using the IKMB-based router, against CGE's published widths.
func Table2(cfg RouterConfig) ([]WidthRow, error) {
	cfg = cfg.withDefaults()
	var rows []WidthRow
	for _, spec := range circuits.Table2Circuits {
		row, err := minWidthFor(spec, router.AlgIKMB, cfg)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3 reproduces Table 3: minimum channel width of the nine 4000-series
// circuits using the IKMB-based router, against SEGA's and GBP's published
// widths.
func Table3(cfg RouterConfig) ([]WidthRow, error) {
	cfg = cfg.withDefaults()
	var rows []WidthRow
	for _, spec := range circuits.Table3Circuits {
		row, err := minWidthFor(spec, router.AlgIKMB, cfg)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable2 renders Table 2 with the published CGE widths and totals.
func PrintTable2(w io.Writer, rows []WidthRow) {
	fmt.Fprintln(w, "Table 2: minimum channel width, Xilinx 3000-series (Fs=6, Fc=⌈0.6W⌉)")
	fmt.Fprintf(w, "%-10s %8s %6s %12s %12s %14s\n", "circuit", "size", "nets", "CGE(publ.)", "ours(IKMB)", "paper's router")
	totCGE, totOurs, totPaper := 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %3dx%-4d %6d %12d %12d %14d\n",
			r.Spec.Name, r.Spec.Cols, r.Spec.Rows, r.Spec.TotalNets(), r.Spec.CGE, r.MinWidth, r.Spec.PaperIKMB)
		totCGE += r.Spec.CGE
		totOurs += r.MinWidth
		totPaper += r.Spec.PaperIKMB
	}
	fmt.Fprintf(w, "%-10s %8s %6s %12d %12d %14d\n", "totals", "", "", totCGE, totOurs, totPaper)
	fmt.Fprintf(w, "CGE/ours ratio: %.2f (paper reported 1.22)\n", float64(totCGE)/float64(totOurs))
}

// PrintTable3 renders Table 3 with the published SEGA/GBP widths.
func PrintTable3(w io.Writer, rows []WidthRow) {
	fmt.Fprintln(w, "Table 3: minimum channel width, Xilinx 4000-series (Fs=3, Fc=W)")
	fmt.Fprintf(w, "%-10s %8s %6s %6s %6s %12s %14s\n", "circuit", "size", "nets", "SEGA", "GBP", "ours(IKMB)", "paper's router")
	totS, totG, totOurs, totPaper := 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %3dx%-4d %6d %6d %6d %12d %14d\n",
			r.Spec.Name, r.Spec.Cols, r.Spec.Rows, r.Spec.TotalNets(), r.Spec.SEGA, r.Spec.GBP, r.MinWidth, r.Spec.PaperIKMB)
		totS += r.Spec.SEGA
		totG += r.Spec.GBP
		totOurs += r.MinWidth
		totPaper += r.Spec.PaperIKMB
	}
	fmt.Fprintf(w, "%-10s %8s %6s %6d %6d %12d %14d\n", "totals", "", "", totS, totG, totOurs, totPaper)
	fmt.Fprintf(w, "SEGA/ours ratio: %.2f (paper 1.26); GBP/ours ratio: %.2f (paper 1.17)\n",
		float64(totS)/float64(totOurs), float64(totG)/float64(totOurs))
}

// Table4Row holds the per-algorithm minimum widths of one circuit.
type Table4Row struct {
	Spec            circuits.Spec
	IKMB, PFA, IDOM int
}

// Table4 reproduces Table 4: minimum channel width of the 4000-series
// circuits under IKMB (wirelength only) vs PFA and IDOM (wirelength and
// optimal pathlength). The expected ordering is IKMB ≤ IDOM ≤ PFA.
func Table4(cfg RouterConfig) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table4Row
	for _, spec := range circuits.Table3Circuits {
		row := Table4Row{Spec: spec}
		for _, alg := range []string{router.AlgIKMB, router.AlgPFA, router.AlgIDOM} {
			wr, err := minWidthFor(spec, alg, cfg)
			if err != nil {
				return rows, err
			}
			switch alg {
			case router.AlgIKMB:
				row.IKMB = wr.MinWidth
			case router.AlgPFA:
				row.PFA = wr.MinWidth
			case router.AlgIDOM:
				row.IDOM = wr.MinWidth
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable4 renders Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: minimum channel width by algorithm, Xilinx 4000-series")
	fmt.Fprintf(w, "%-10s %6s %6s | %6s %6s %6s | paper: %5s %5s %5s\n",
		"circuit", "SEGA", "GBP", "IKMB", "PFA", "IDOM", "IKMB", "PFA", "IDOM")
	var tI, tP, tD int
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %6d | %6d %6d %6d | paper: %5d %5d %5d\n",
			r.Spec.Name, r.Spec.SEGA, r.Spec.GBP, r.IKMB, r.PFA, r.IDOM,
			r.Spec.PaperIKMB, r.Spec.PaperPFA, r.Spec.PaperIDOM)
		tI += r.IKMB
		tP += r.PFA
		tD += r.IDOM
	}
	fmt.Fprintf(w, "totals: IKMB %d, PFA %d, IDOM %d (ratios %.2f / %.2f / %.2f; paper 1.00 / 1.17 / 1.13)\n",
		tI, tP, tD, 1.0, float64(tP)/float64(tI), float64(tD)/float64(tI))
}

// Table5Row compares PFA and IDOM against IKMB at one shared channel width.
type Table5Row struct {
	Spec  circuits.Spec
	Width int
	// Percent wirelength increase vs IKMB (positive = more wire).
	PFAWirePct, IDOMWirePct float64
	// Percent max-pathlength change vs IKMB (negative = shorter critical
	// paths), averaged per net.
	PFAPathPct, IDOMPathPct float64
}

// Table5 reproduces Table 5: all three algorithms route each circuit at the
// same channel width (the published Table 5 width, which accommodates all
// of them), and we report PFA/IDOM wirelength increase and max-pathlength
// decrease relative to IKMB.
func Table5(cfg RouterConfig) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table5Row
	algs := []string{router.AlgIKMB, router.AlgPFA, router.AlgIDOM}
	for _, spec := range circuits.Table3Circuits {
		ckt, err := circuits.Synthesize(spec, cfg.Seed)
		if err != nil {
			return rows, err
		}
		// The paper routes at the smallest width accommodating all three
		// algorithms; start from the published Table 5 width and widen
		// until every algorithm succeeds.
		ctx := router.NewContext(cfg.Stats)
		defer ctx.Close()
		var results map[string]*router.Result
		width := spec.Table5W
		for ; width <= 4*spec.Table5W; width++ {
			results = map[string]*router.Result{}
			for _, alg := range algs {
				progress("table 5: %s at width %d with %s", spec.Name, width, alg)
				res, err := router.RouteContext(cfg.Ctx, ctx, ckt, width, router.Options{Algorithm: alg, MaxPasses: cfg.MaxPasses, CandidateWorkers: cfg.CandidateWorkers, SingleStep: cfg.SingleStep, LazyScan: cfg.LazyScan, GoalDirected: cfg.GoalDirected, Parallel: cfg.Parallel, NetWorkers: cfg.NetWorkers})
				if err != nil {
					if errors.Is(err, router.ErrUnroutable) {
						break
					}
					return rows, err // canceled or a hard failure: stop widening
				}
				results[alg] = res
			}
			if len(results) == len(algs) {
				break
			}
		}
		if len(results) != len(algs) {
			return rows, fmt.Errorf("table5: %s unroutable by all algorithms up to width %d", spec.Name, width)
		}
		base := results[router.AlgIKMB]
		row := Table5Row{Spec: spec, Width: width}
		row.PFAWirePct = (results[router.AlgPFA].Wirelength/base.Wirelength - 1) * 100
		row.IDOMWirePct = (results[router.AlgIDOM].Wirelength/base.Wirelength - 1) * 100
		row.PFAPathPct = avgPathDelta(results[router.AlgPFA], base)
		row.IDOMPathPct = avgPathDelta(results[router.AlgIDOM], base)
		rows = append(rows, row)
	}
	return rows, nil
}

// avgPathDelta averages the per-net percent change in max source-sink
// pathlength of res vs base (nets with zero base pathlength are skipped).
func avgPathDelta(res, base *router.Result) float64 {
	sum, cnt := 0.0, 0
	for i := range base.Nets {
		b := base.Nets[i].MaxPath
		if b <= 0 {
			continue
		}
		sum += (res.Nets[i].MaxPath/b - 1) * 100
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// PrintTable5 renders Table 5.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: % wirelength increase and max-pathlength change vs IKMB at equal width")
	fmt.Fprintf(w, "%-10s %6s %10s %10s %12s %12s\n", "circuit", "W", "PFA wire%", "IDOM wire%", "PFA path%", "IDOM path%")
	var sw, sdw, sp, sdp float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %10.1f %10.1f %12.1f %12.1f\n",
			r.Spec.Name, r.Width, r.PFAWirePct, r.IDOMWirePct, r.PFAPathPct, r.IDOMPathPct)
		sw += r.PFAWirePct
		sdw += r.IDOMWirePct
		sp += r.PFAPathPct
		sdp += r.IDOMPathPct
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "averages: PFA wire +%.1f%%, IDOM wire +%.1f%% (paper +18.2/+12.8); PFA path %.1f%%, IDOM path %.1f%% (paper −9.5/−10.2)\n",
		sw/n, sdw/n, sp/n, sdp/n)
}
