package experiments

import (
	"fmt"
	"io"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// PathfinderRow compares the two routing engines on one paper circuit at
// the paper's IKMB width: the net-parallel negotiated-congestion engine
// (router.Options.Parallel) against the paper's sequential rip-up router.
type PathfinderRow struct {
	Spec         circuits.Spec
	Iterations   int // pathfinder iterations
	ParWL, SeqWL float64
	ParTime      time.Duration
	SeqTime      time.Duration
}

// PathfinderTable routes every paper circuit at its paper width with both
// engines at their default options and times each route. A circuit that
// fails to route under either engine is an error.
func PathfinderTable(cfg RouterConfig) ([]PathfinderRow, error) {
	var rows []PathfinderRow
	for _, spec := range append(append([]circuits.Spec(nil), circuits.Table2Circuits...), circuits.Table3Circuits...) {
		ckt, err := circuits.Synthesize(spec, cfg.Seed)
		if err != nil {
			return rows, err
		}
		row := PathfinderRow{Spec: spec}
		for _, parallel := range []bool{false, true} {
			progress("pathfinder table: %s at width %d (parallel=%v)", spec.Name, spec.PaperIKMB, parallel)
			ctx := cfg.newContext()
			start := time.Now()
			res, err := router.RouteCtx(ctx, ckt, spec.PaperIKMB, router.Options{Parallel: parallel})
			elapsed := time.Since(start)
			ctx.Close()
			if err != nil {
				return rows, fmt.Errorf("%s (parallel=%v): %w", spec.Name, parallel, err)
			}
			if parallel {
				row.Iterations, row.ParWL, row.ParTime = res.Passes, res.Wirelength, elapsed
			} else {
				row.SeqWL, row.SeqTime = res.Wirelength, elapsed
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintPathfinderTable renders the rows as a Markdown table headed by the
// machine parallelism and the commit the timings describe.
func PrintPathfinderTable(w io.Writer, rows []PathfinderRow, gomaxprocs int, commit string) {
	fmt.Fprintf(w, "Pathfinder vs sequential router at paper widths (gomaxprocs %d, commit %s)\n\n", gomaxprocs, commit)
	fmt.Fprintln(w, "| Circuit | W | iters | parallel wl | sequential wl | Δwl | par time | seq time |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	var parWL, seqWL float64
	var parT, seqT time.Duration
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %.1f | %.1f | %+.2f %% | %s | %s |\n",
			r.Spec.Name, r.Spec.PaperIKMB, r.Iterations, r.ParWL, r.SeqWL,
			100*(r.ParWL-r.SeqWL)/r.SeqWL, seconds(r.ParTime), seconds(r.SeqTime))
		parWL += r.ParWL
		seqWL += r.SeqWL
		parT += r.ParTime
		seqT += r.SeqTime
	}
	if len(rows) > 0 && seqWL > 0 {
		fmt.Fprintf(w, "| total | | | %.1f | %.1f | %+.2f %% | %s | %s |\n",
			parWL, seqWL, 100*(parWL-seqWL)/seqWL, seconds(parT), seconds(seqT))
	}
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.2f s", d.Seconds()) }
