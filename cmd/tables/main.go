// Command tables regenerates every table and figure of the paper's
// evaluation section on the synthesized benchmark suite.
//
// Usage:
//
//	tables -all                     # everything (tables 1-5, figures 4,10,11,14,16)
//	tables -table 1 [-nets 50]      # Table 1 on 50 nets per cell (paper's count)
//	tables -table 2                 # Table 2 (3000-series channel widths)
//	tables -figure 14               # one figure experiment
//	tables -quick -all              # reduced pass/net counts for a fast pass
//	tables -figure 16 -svg out.svg  # also write the routing plot SVG
//	tables -pathfinder              # both engines on the 14 paper circuits
//
// Absolute numbers depend on the synthesized netlists (see DESIGN.md §4);
// the printed output includes the paper's published values alongside ours.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/experiments"
	"fpgarouter/internal/prof"
	"fpgarouter/internal/stats"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate one table (1-5)")
		figure     = flag.Int("figure", 0, "regenerate one figure (4, 10, 11, 14, 16)")
		all        = flag.Bool("all", false, "regenerate everything")
		quick      = flag.Bool("quick", false, "reduced nets/passes for a fast smoke run")
		seed       = flag.Int64("seed", 1, "benchmark synthesis / workload seed")
		nets       = flag.Int("nets", 50, "nets per Table 1 cell")
		passes     = flag.Int("passes", 0, "router feasibility pass threshold (0 = mode default: 20 sequential, 96 parallel)")
		svgOut     = flag.String("svg", "", "write the Figure 16 SVG to this file")
		tradeoff   = flag.Bool("tradeoff", false, "run the BRBC / Prim-Dijkstra trade-off study (Section 2 comparison)")
		segment    = flag.String("segmentation", "", "run the channel-segmentation study on this circuit (e.g. term1)")
		pathfind   = flag.Bool("pathfinder", false, "route every paper circuit at its paper width with both engines: iterations, wirelengths, wall times")
		useStats   = flag.Bool("stats", false, "print aggregate router work counters after the sweeps")
		timeout    = flag.Duration("timeout", 0, "abandon the table/figure sweeps after this long (0 = unbounded)")
		workers    = flag.Int("cand-workers", 0, "candidate-scan worker goroutines per net (0 = GOMAXPROCS capped at 8, 1 = sequential)")
		singleStep = flag.Bool("single", false, "single-step Steiner-point admission (one candidate per scan round, the paper's Figure 5 template)")
		parallel   = flag.Bool("parallel", false, "net-parallel negotiated-congestion routing (internal/pathfinder) for the table sweeps")
		netWork    = flag.Int("net-workers", 0, "net-routing worker goroutines in -parallel mode (0 = GOMAXPROCS capped at 8; results are identical for any worker count)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// os.Exit skips defers, so every exit path below goes through exit()
	// to flush the profiles first; the defer covers the normal return.
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}
	if !*all && *table == 0 && *figure == 0 && !*tradeoff && *segment == "" && !*pathfind {
		flag.Usage()
		exit(2)
	}
	if *quick {
		if *nets > 15 {
			*nets = 15
		}
		if *passes == 0 || *passes > 8 {
			*passes = 8
		}
	}
	cfg := experiments.RouterConfig{Seed: *seed, MaxPasses: *passes, CandidateWorkers: *workers, SingleStep: *singleStep, Parallel: *parallel, NetWorkers: *netWork}
	if *timeout > 0 {
		cc, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = cc
	}
	if *useStats {
		cfg.Stats = stats.New()
		defer func() { fmt.Print(cfg.Stats.Snapshot()) }()
	}

	run := func(name string, f func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(t int) bool { return *all || *table == t }
	wantFig := func(f int) bool { return *all || *figure == f }

	if want(1) {
		run("Table 1", func() error {
			blocks, err := experiments.Table1(*seed, *nets)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, blocks)
			return nil
		})
	}
	if want(2) {
		run("Table 2", func() error {
			rows, err := experiments.Table2(cfg)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
			return nil
		})
	}
	if want(3) {
		run("Table 3", func() error {
			rows, err := experiments.Table3(cfg)
			if err != nil {
				return err
			}
			experiments.PrintTable3(os.Stdout, rows)
			return nil
		})
	}
	if want(4) {
		run("Table 4", func() error {
			rows, err := experiments.Table4(cfg)
			if err != nil {
				return err
			}
			experiments.PrintTable4(os.Stdout, rows)
			return nil
		})
	}
	if want(5) {
		run("Table 5", func() error {
			rows, err := experiments.Table5(cfg)
			if err != nil {
				return err
			}
			experiments.PrintTable5(os.Stdout, rows)
			return nil
		})
	}
	if wantFig(4) {
		run("Figure 4", func() error {
			r, err := experiments.Figure4()
			if err != nil {
				return err
			}
			experiments.PrintFigure4(os.Stdout, r)
			return nil
		})
	}
	if wantFig(10) {
		run("Figure 10", func() error {
			rows, err := experiments.Figure10([]int{2, 4, 8, 16, 32})
			if err != nil {
				return err
			}
			experiments.PrintFigure10(os.Stdout, rows)
			return nil
		})
	}
	if wantFig(11) {
		run("Figure 11", func() error {
			rows, err := experiments.Figure11([]int{4, 6, 8, 10})
			if err != nil {
				return err
			}
			experiments.PrintFigure11(os.Stdout, rows)
			return nil
		})
	}
	if wantFig(14) {
		run("Figure 14", func() error {
			rows, err := experiments.Figure14([]int{2, 3, 4, 5, 6, 7})
			if err != nil {
				return err
			}
			experiments.PrintFigure14(os.Stdout, rows)
			return nil
		})
	}
	if *all || *tradeoff {
		run("Tradeoff study", func() error {
			rows, err := experiments.Tradeoff(*seed, *nets, 10)
			if err != nil {
				return err
			}
			experiments.PrintTradeoff(os.Stdout, rows, 10)
			return nil
		})
	}
	if *segment != "" {
		run("Segmentation study", func() error {
			spec, ok := circuits.SpecByName(*segment)
			if !ok {
				return fmt.Errorf("unknown circuit %q", *segment)
			}
			rows, err := experiments.Segmentation(*segment, *seed, spec.PaperIKMB+2, *passes)
			if err != nil {
				return err
			}
			experiments.PrintSegmentation(os.Stdout, *segment, rows)
			return nil
		})
	}
	if *pathfind {
		run("Pathfinder table", func() error {
			rows, err := experiments.PathfinderTable(cfg)
			if err != nil {
				return err
			}
			experiments.PrintPathfinderTable(os.Stdout, rows, runtime.GOMAXPROCS(0), commit())
			return nil
		})
	}
	if wantFig(16) {
		run("Figure 16", func() error {
			r, err := experiments.Figure16(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("busc routed at width %d in %d pass(es)\n%s", r.Width, r.Passes, r.ASCII)
			if *svgOut != "" {
				if err := os.WriteFile(*svgOut, []byte(r.SVG), 0o644); err != nil {
					return err
				}
				fmt.Printf("SVG written to %s\n", *svgOut)
			}
			return nil
		})
	}
}

// commit returns the VCS revision stamped into the binary (go build in a
// git checkout stamps it; go run does not), marked "+dirty" when the tree
// had local changes.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value[:min(12, len(s.Value))]
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
