// Command fpgaroute synthesizes one of the paper's benchmark circuits and
// routes it, optionally searching for the minimum channel width and
// rendering the solution.
//
// Usage:
//
//	fpgaroute -circuit busc                  # route at the best known width
//	fpgaroute -circuit alu4 -alg idom -min   # minimum-width search with IDOM
//	fpgaroute -circuit busc -width 9 -svg out.svg -ascii
//	fpgaroute -list                          # list available circuits
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/prof"
	"fpgarouter/internal/render"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

func main() {
	var (
		name     = flag.String("circuit", "busc", "benchmark circuit name")
		alg      = flag.String("alg", "ikmb", "routing algorithm: kmb|zel|sph|ikmb|izel|isph|djka|dom|pfa|idom")
		netlist  = flag.String("netlist", "", "route this netlist file instead of a synthesized benchmark")
		critical = flag.String("critical", "", "comma-separated net IDs to route as critical nets (with idom)")
		width    = flag.Int("width", 0, "channel width (0 = paper's best known)")
		minW     = flag.Bool("min", false, "search for the minimum channel width")
		passes   = flag.Int("passes", 0, "feasibility pass threshold (0 = mode default: 20 sequential, 96 parallel)")
		seed     = flag.Int64("seed", 1, "netlist synthesis seed")
		svgOut   = flag.String("svg", "", "write an SVG plot of the routed solution")
		ascii    = flag.Bool("ascii", false, "print an ASCII channel-utilization map")
		list     = flag.Bool("list", false, "list available benchmark circuits")
		useStats = flag.Bool("stats", false, "print router work counters (SSSP runs, rip-ups, congestion histogram)")
		timeout  = flag.Duration("timeout", 0, "abandon the run after this long (0 = unbounded)")
		workers  = flag.Int("cand-workers", 0, "candidate-scan worker goroutines per net (0 = GOMAXPROCS capped at 8, 1 = sequential)")
		single   = flag.Bool("single", false, "single-step Steiner-point admission (one candidate per scan round, the paper's Figure 5 template)")
		lazy     = flag.Bool("lazy", false, "lazy-greedy candidate scans (stale-gain queue with exactness fallback; far fewer evaluations, wirelength may deviate <0.1%; arms under -single)")
		goal     = flag.Bool("goal", false, "goal-directed search (A* toward each net's pins under the fabric's coordinate bound, bidirectional Dijkstra for 2-pin nets; exact costs, equal-cost paths may differ; always on under -parallel)")
		parallel = flag.Bool("parallel", false, "net-parallel negotiated-congestion routing (internal/pathfinder): all nets route concurrently each iteration against Lagrangian edge prices")
		netWork  = flag.Int("net-workers", 0, "net-routing worker goroutines in -parallel mode (0 = GOMAXPROCS capped at 8; results are identical for any worker count)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *list {
		fmt.Println("3000-series (Table 2):")
		for _, s := range circuits.Table2Circuits {
			fmt.Printf("  %-10s %2dx%-2d  %4d nets\n", s.Name, s.Cols, s.Rows, s.TotalNets())
		}
		fmt.Println("4000-series (Tables 3-5):")
		for _, s := range circuits.Table3Circuits {
			fmt.Printf("  %-10s %2dx%-2d  %4d nets\n", s.Name, s.Cols, s.Rows, s.TotalNets())
		}
		return
	}

	var ckt *circuits.Circuit
	var spec circuits.Spec
	if *netlist != "" {
		f, err := os.Open(*netlist)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		ckt, err = circuits.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		spec = ckt.Spec
		if spec.PaperIKMB == 0 {
			spec.PaperIKMB = 8 // neutral starting width for external netlists
		}
	} else {
		var ok bool
		spec, ok = circuits.SpecByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown circuit %q (try -list)\n", *name)
			exit(2)
		}
		var err error
		ckt, err = circuits.Synthesize(spec, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	opts := router.Options{Algorithm: *alg, MaxPasses: *passes, CandidateWorkers: *workers, SingleStep: *single, LazyScan: *lazy, GoalDirected: *goal, Parallel: *parallel, NetWorkers: *netWork}
	if *critical != "" {
		for _, tok := range strings.Split(*critical, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -critical net id %q\n", tok)
				exit(2)
			}
			opts.CriticalNets = append(opts.CriticalNets, id)
		}
	}

	var col *stats.Collector
	if *useStats {
		col = stats.New()
	}
	ctx := router.NewContext(col)
	defer ctx.Close()
	printStats := func() {
		if col != nil {
			fmt.Print(col.Snapshot())
		}
	}
	cc := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		cc, cancel = context.WithTimeout(cc, *timeout)
		defer cancel()
	}

	start := time.Now()
	if *minW {
		w, res, complete, err := router.MinWidthContext(cc, ctx, ckt, spec.PaperIKMB, opts)
		if err != nil && res == nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if complete {
			fmt.Printf("%s: minimum channel width %d (%d passes at that width, %.0f wirelength, %v)\n",
				spec.Name, w, res.Passes, res.Wirelength, time.Since(start).Round(time.Millisecond))
		} else {
			// Interrupted mid-search with a feasible width in hand: report the
			// best-so-far answer, flagged as an upper bound.
			fmt.Fprintf(os.Stderr, "search interrupted: %v\n", err)
			fmt.Printf("%s: best feasible channel width %d (search incomplete; %d passes at that width, %.0f wirelength, %v)\n",
				spec.Name, w, res.Passes, res.Wirelength, time.Since(start).Round(time.Millisecond))
		}
		printStats()
		if !complete {
			exit(1)
		}
		return
	}

	w := *width
	if w == 0 {
		w = spec.PaperIKMB
	}
	res, fab, err := router.RouteWithFabricContext(cc, ctx, ckt, w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routing failed: %v\n", err)
		if res != nil && res.Partial {
			fmt.Fprintf(os.Stderr, "partial result: %d/%d nets routed at width %d (%d pass(es), wirelength %.1f)\n",
				res.RoutedNets, len(res.Nets), w, res.Passes, res.Wirelength)
		}
		exit(1)
	}
	fmt.Printf("%s routed at width %d: %d pass(es), wirelength %.1f, max span utilization %d/%d, %v\n",
		spec.Name, w, res.Passes, res.Wirelength, res.MaxUtil, w, time.Since(start).Round(time.Millisecond))
	printStats()
	if *ascii {
		fmt.Print(render.UtilizationASCII(fab))
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(render.SVG(fab, res)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Printf("SVG written to %s\n", *svgOut)
	}
}
