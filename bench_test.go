// Package fpgarouter's top-level benchmarks regenerate the performance
// characteristics of every table and figure in the paper (see DESIGN.md §3
// for the experiment index) plus the ablation benches of DESIGN.md §5.
//
// Run with:
//
//	go test -bench=. -benchmem
package fpgarouter

import (
	"math/rand"
	"testing"

	"fpgarouter/internal/arbor"
	"fpgarouter/internal/circuits"
	"fpgarouter/internal/congest"
	"fpgarouter/internal/core"
	"fpgarouter/internal/experiments"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/render"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// cpuInstance reproduces the paper's CPU-time instance shape: random
// graphs with |V| = 50, |E| = 1000, |N| = 5 ("several dozen milliseconds
// on a Sun/4").
func cpuInstance(seed int64) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(rng, 50, 1000, 10)
	return g, graph.RandomNet(rng, g, 5)
}

func benchAlg(b *testing.B, fn func(*graph.SPTCache, []graph.NodeID) (graph.Tree, error)) {
	g, net := cpuInstance(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(g)
		if _, err := fn(cache, net); err != nil {
			b.Fatal(err)
		}
	}
}

// CPU-time comparison (paper Section 5, |V|=50, |E|=1000, |N|=5).
func BenchmarkRandomGraphKMB(b *testing.B)  { benchAlg(b, steiner.KMB) }
func BenchmarkRandomGraphZEL(b *testing.B)  { benchAlg(b, steiner.ZEL) }
func BenchmarkRandomGraphIKMB(b *testing.B) { benchAlg(b, core.IKMB) }
func BenchmarkRandomGraphIZEL(b *testing.B) { benchAlg(b, core.IZEL) }
func BenchmarkRandomGraphDJKA(b *testing.B) { benchAlg(b, arbor.DJKA) }
func BenchmarkRandomGraphDOM(b *testing.B)  { benchAlg(b, arbor.DOM) }
func BenchmarkRandomGraphPFA(b *testing.B)  { benchAlg(b, arbor.PFA) }
func BenchmarkRandomGraphIDOM(b *testing.B) { benchAlg(b, core.IDOM) }

// BenchmarkTable1Cell regenerates one Table 1 cell: an 8-pin net routed by
// all eight algorithms on a medium-congestion 20×20 grid.
func BenchmarkTable1Cell(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g, err := congest.NewCongestedGrid(rng, 20)
	if err != nil {
		b.Fatal(err)
	}
	net := graph.RandomNet(rng, g.Graph, 8)
	algs := experiments.Table1Algorithms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(g.Graph)
		for _, a := range algs {
			if _, err := a.Fn(cache, net); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// synthBench synthesizes a benchmark circuit once per run.
func synthBench(b *testing.B, name string) *circuits.Circuit {
	b.Helper()
	spec, ok := circuits.SpecByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

// BenchmarkTable2RouteBusc routes the smallest Table 2 circuit (busc,
// Xilinx 3000) at the paper's width with the IKMB router.
func BenchmarkTable2RouteBusc(b *testing.B) {
	ckt := synthBench(b, "busc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Route(ckt, 7, router.Options{MaxPasses: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3RouteTerm1 routes the smallest Table 3 circuit (term1,
// Xilinx 4000) at the paper's width with the IKMB router.
func BenchmarkTable3RouteTerm1(b *testing.B) {
	ckt := synthBench(b, "term1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Route(ckt, 8, router.Options{MaxPasses: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 compares the three router algorithms of Table 4 on term1
// at a width that accommodates all of them.
func BenchmarkTable4(b *testing.B) {
	ckt := synthBench(b, "term1")
	for _, alg := range []string{router.AlgIKMB, router.AlgPFA, router.AlgIDOM} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := router.Route(ckt, 9, router.Options{Algorithm: alg, MaxPasses: 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5Metrics measures the per-net metric extraction used by
// Table 5 (wirelength and max pathlength of every routed net).
func BenchmarkTable5Metrics(b *testing.B) {
	ckt := synthBench(b, "term1")
	res, err := router.Route(ckt, 9, router.Options{MaxPasses: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, path := 0.0, 0.0
		for _, nr := range res.Nets {
			total += nr.Wirelength
			path += nr.MaxPath
		}
		if total <= 0 || path <= 0 {
			b.Fatal("bad metrics")
		}
	}
}

// Figure benches: the gadget families of Figures 10, 11 and 14 and the
// Figure 4 instance search.
func BenchmarkFigure4Search(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10PFA(b *testing.B) {
	gad := experiments.NewFigure10(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(gad.G)
		if _, err := arbor.PFA(cache, gad.Net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Staircase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11([]int{8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14IDOM(b *testing.B) {
	gad := experiments.NewFigure14(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(gad.G)
		if _, err := core.IDOM(cache, gad.Net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure16Render(b *testing.B) {
	ckt := synthBench(b, "busc")
	res, fab, err := router.RouteWithFabric(ckt, 7, router.Options{MaxPasses: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := render.SVG(fab, res); len(s) == 0 {
			b.Fatal("empty SVG")
		}
		if s := render.UtilizationASCII(fab); len(s) == 0 {
			b.Fatal("empty ASCII")
		}
	}
}

// BenchmarkNewFabric builds the routing fabric of each perfbench circuit at
// its paper width: a cost every route and every result check pays before
// its first search.
func BenchmarkNewFabric(b *testing.B) {
	for _, name := range []string{"busc", "dma", "term1", "apex7", "9symml"} {
		spec, ok := circuits.SpecByName(name)
		if !ok {
			b.Fatalf("unknown circuit %s", name)
		}
		arch := spec.ArchAt(spec.PaperIKMB)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fpga.NewFabric(arch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkIGMSTBatchedVsSingle isolates the batched Steiner-point
// admission against one-candidate-per-round on a Table 1 style instance.
func BenchmarkIGMSTBatchedVsSingle(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, err := congest.NewCongestedGrid(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	net := graph.RandomNet(rng, g.Graph, 8)
	for _, batched := range []bool{false, true} {
		name := "single"
		if batched {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(g.Graph)
				if _, err := core.IGMST(cache, net, steiner.KMB, core.Options{Batched: batched}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIKMBCandidateScope compares the full-V candidate scan against
// the bounding-box pool the router uses.
func BenchmarkIKMBCandidateScope(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g, err := congest.NewCongestedGrid(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	net := graph.RandomNet(rng, g.Graph, 5)
	// Bounding-box pool over the grid coordinates.
	minX, minY, maxX, maxY := congest.GridSize, congest.GridSize, 0, 0
	for _, v := range net {
		x, y := g.Coords(v)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	var pool []graph.NodeID
	for y := max(0, minY-2); y <= min(congest.GridSize-1, maxY+2); y++ {
		for x := max(0, minX-2); x <= min(congest.GridSize-1, maxX+2); x++ {
			pool = append(pool, g.Node(x, y))
		}
	}
	cases := []struct {
		name string
		opts core.Options
	}{
		{"fullscan", core.Options{}},
		{"bbox", core.Options{Candidates: pool}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(g.Graph)
				if _, err := core.IGMST(cache, net, steiner.KMB, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIKMBSSSPCache quantifies the shared shortest-paths cache: the
// "nocache" variant hands the template a heuristic that recomputes its own
// cache on every evaluation.
func BenchmarkIKMBSSSPCache(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := congest.NewCongestedGrid(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	net := graph.RandomNet(rng, g.Graph, 5)
	uncachedKMB := func(_ *graph.SPTCache, n []graph.NodeID) (graph.Tree, error) {
		return steiner.KMB(graph.NewSPTCache(g.Graph), n)
	}
	cases := []struct {
		name string
		h    steiner.Heuristic
	}{
		{"cache", steiner.KMB},
		{"nocache", uncachedKMB},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(g.Graph)
				if _, err := core.IGMST(cache, net, c.h, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Tracked benchmarks (BENCH_router.json) ---
//
// The benchmarks from BenchmarkIKMB_Pooled to
// BenchmarkRouteZ03ParallelIncremental are BENCH_router.json's entries, in
// its order: scripts/bench-json.sh times them and folds go test's output
// into the file, work counters included, so each must keep its name and
// stay in place. The micro entries come first; the whole-circuit routes
// follow BenchmarkSSSP_PathfinderNet.

// BenchmarkIKMB_Pooled runs the iterated KMB construction through one
// reused Dijkstra scratch, releasing the per-net cache each iteration so
// SPT buffers recycle — the router's steady-state allocation profile.
func BenchmarkIKMB_Pooled(b *testing.B) {
	g, net := cpuInstance(1)
	s := graph.NewDijkstraScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(g).WithScratch(s)
		if _, err := core.IKMB(cache, net); err != nil {
			b.Fatal(err)
		}
		cache.Release()
	}
}

// BenchmarkIKMB_Unpooled is the pre-refactor baseline: every iteration
// allocates a private scratch and abandons its SPTs to the collector.
func BenchmarkIKMB_Unpooled(b *testing.B) {
	g, net := cpuInstance(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(g)
		if _, err := core.IKMB(cache, net); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCandidateScan measures IKMB's candidate-scan rounds, screened as the
// routers run them (core.IKMBStats), at a fixed worker count on a denser
// instance (|V| = 400, |E| = 3000, |N| = 12, full-graph pool, 3 admissions
// at seed 2): one round carries enough base-heuristic work for sharding to
// matter, and the construction runs several rounds. evals/op counts the
// base-heuristic evaluations.
func benchCandidateScan(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(rng, 400, 3000, 10)
	net := graph.RandomNet(rng, g, 12)
	s := graph.NewDijkstraScratch()
	var evals int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := graph.NewSPTCache(g).WithScratch(s)
		_, st, err := core.IKMBStats(cache, net, core.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		evals += st.Evaluations
		cache.Release()
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkCandidateScanSeq and BenchmarkCandidateScanPar do identical
// work with identical results at one and eight workers. Seq is the
// regression oracle the parallel scan is guaranteed bit-identical to;
// interpret the pair together with the GOMAXPROCS it ran under.
func BenchmarkCandidateScanSeq(b *testing.B) { benchCandidateScan(b, 1) }
func BenchmarkCandidateScanPar(b *testing.B) { benchCandidateScan(b, 8) }

// benchSweep times sweep after one untimed call that warms s's buffers,
// and reports the nodes s settles per call as expanded/op: the work metric
// that separates the searches beyond wall-clock noise.
func benchSweep(b *testing.B, s *graph.DijkstraScratch, sweep func()) {
	sweep()
	s.Settled = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(s.Settled)/float64(b.N), "expanded/op")
}

// benchSSSP times one early-stopping shortest-path sweep over busc's
// first 32 nets on a fresh fabric at width 10, where every pin tap is
// enabled: from each net's first pin to its pins, with the SPT recycled.
// SSSP_CSR runs the CSR weight-stream loop; SSSP_AStar runs the
// goal-directed stop-set search under the fabric's coordinate bound, which
// finds identical terminal distances and must settle strictly fewer nodes.
func benchSSSP(b *testing.B, astar bool) {
	ckt := synthBench(b, "busc")
	fab, err := fpga.NewFabric(ckt.ArchAt(10))
	if err != nil {
		b.Fatal(err)
	}
	g, bnd := fab.Graph(), fab.Bounds()
	var nets [][]graph.NodeID
	for _, net := range ckt.Nets[:min(32, len(ckt.Nets))] {
		terms := make([]graph.NodeID, len(net.Pins))
		for j, p := range net.Pins {
			terms[j] = fab.PinNode(p)
		}
		nets = append(nets, terms)
	}
	s := graph.NewDijkstraScratch()
	benchSweep(b, s, func() {
		for _, terms := range nets {
			var t *graph.SPT
			if astar {
				t = g.DijkstraWithinBounded(s, terms[0], terms, bnd)
			} else {
				t = g.DijkstraWithinScratch(s, terms[0], terms)
			}
			s.RecycleSPT(t)
		}
	})
}

func BenchmarkSSSP_CSR(b *testing.B)   { benchSSSP(b, false) }
func BenchmarkSSSP_AStar(b *testing.B) { benchSSSP(b, true) }

// netSearches returns busc's fabric at its paper width and, for its first
// 32 nets, the pins and the stop set the routers' per-net caches search to:
// the net's pins plus its Steiner-candidate pool (margin 2, at most 1024
// nodes, the routers' defaults).
func netSearches(b *testing.B) (*fpga.Fabric, []circuits.Net, [][]graph.NodeID) {
	b.Helper()
	ckt := synthBench(b, "busc")
	fab, err := fpga.NewFabric(ckt.ArchAt(ckt.Spec.PaperIKMB))
	if err != nil {
		b.Fatal(err)
	}
	nets := ckt.Nets[:min(32, len(ckt.Nets))]
	stops := make([][]graph.NodeID, len(nets))
	for i, net := range nets {
		for _, p := range net.Pins {
			stops[i] = append(stops[i], fab.PinNode(p))
		}
		stops[i] = append(stops[i], fab.SteinerPool(net.Pins, 2, 1024)...)
	}
	return fab, nets, stops
}

// BenchmarkSSSP_RouterNet times the sequential router's per-net search:
// BeginNet opens the net's pins, then a stop-set Dijkstra runs from its
// first pin through a per-net cache, as routeNet does. One op covers the
// 32 nets of netSearches.
func BenchmarkSSSP_RouterNet(b *testing.B) {
	fab, nets, stops := netSearches(b)
	s := graph.NewDijkstraScratch()
	benchSweep(b, s, func() {
		for k, net := range nets {
			fab.BeginNet(net.Pins)
			c := graph.NewSPTCacheWithin(fab.Graph(), stops[k]).WithScratch(s)
			c.Tree(stops[k][0])
			c.Release()
		}
	})
}

// BenchmarkSSSP_PathfinderNet times the pathfinder's per-net search: a
// goal-directed stop-set search under an overlay that blocks every pin but
// the net's own, at iteration 1's zero prices, through a per-net cache as
// the pathfinder's construct does. One op covers the 32 nets of
// netSearches.
func BenchmarkSSSP_PathfinderNet(b *testing.B) {
	fab, nets, stops := netSearches(b)
	ov := graph.NewOverlay(fab.Graph())
	lo, hi := fab.PinNodeRange()
	for v := lo; v < hi; v++ {
		ov.Block(v)
	}
	s := graph.NewDijkstraScratch()
	benchSweep(b, s, func() {
		for k, net := range nets {
			terms := stops[k][:len(net.Pins)]
			for _, v := range terms {
				ov.Unblock(v)
			}
			c := graph.NewSPTCacheWithin(fab.Graph(), stops[k]).WithScratch(s).WithBounds(fab.Bounds()).WithOverlay(ov)
			c.Tree(terms[0])
			c.Release()
			for _, v := range terms {
				ov.Block(v)
			}
		}
	})
}

// benchRouteBusc routes busc at its paper width with opts. For the
// pathfinder it reports iterations/op, its negotiated-congestion
// iterations, which the worker count does not change: the Parallel1 /
// Parallel4 pair does identical routing work, so their ns/op ratio is the
// net-level parallel speedup.
func benchRouteBusc(b *testing.B, opts router.Options) {
	ckt := synthBench(b, "busc")
	passes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := router.Route(ckt, ckt.Spec.PaperIKMB, opts)
		if err != nil {
			b.Fatal(err)
		}
		passes += res.Passes
	}
	if opts.Parallel {
		b.ReportMetric(float64(passes)/float64(b.N), "iterations/op")
	}
}

// The sequential router at one and eight candidate-scan workers, and the
// pathfinder at one and four net workers.
func BenchmarkRouteBuscSeq(b *testing.B) {
	benchRouteBusc(b, router.Options{MaxPasses: 6, CandidateWorkers: 1})
}
func BenchmarkRouteBuscPar(b *testing.B) {
	benchRouteBusc(b, router.Options{MaxPasses: 6, CandidateWorkers: 8})
}
func BenchmarkRouteBuscParallel1(b *testing.B) {
	benchRouteBusc(b, router.Options{Parallel: true, NetWorkers: 1})
}
func BenchmarkRouteBuscParallel4(b *testing.B) {
	benchRouteBusc(b, router.Options{Parallel: true, NetWorkers: 4})
}

// BenchmarkMinWidth measures the minimum-width search on the smallest
// Table 2 circuit, starting at its paper width.
func BenchmarkMinWidth(b *testing.B) {
	ckt := synthBench(b, "busc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := router.MinWidth(ckt, 7, router.Options{MaxPasses: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteZ03ParallelIncremental routes z03, the hardest paper
// circuit, with the pathfinder at its paper width. One route outlasts the
// default -benchtime, so go test times it once per run. It reports the
// route's iterations and the previous-tree edges its partial rip-up
// discarded (ripped/op) and kept (retained/op).
func BenchmarkRouteZ03ParallelIncremental(b *testing.B) {
	ckt := synthBench(b, "z03")
	col := stats.New()
	rctx := router.NewContext(col)
	defer rctx.Close()
	passes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := router.RouteCtx(rctx, ckt, ckt.Spec.PaperIKMB, router.Options{Parallel: true})
		if err != nil {
			b.Fatal(err)
		}
		passes += res.Passes
	}
	snap, n := col.Snapshot(), float64(b.N)
	b.ReportMetric(float64(passes)/n, "iterations/op")
	b.ReportMetric(float64(snap.EdgesRipped)/n, "ripped/op")
	b.ReportMetric(float64(snap.EdgesRetained)/n, "retained/op")
}

// BenchmarkRouterOrdering compares move-to-front reordering against static
// ordering at a width tight enough to require retries.
func BenchmarkRouterOrdering(b *testing.B) {
	ckt := synthBench(b, "term1")
	for _, noMTF := range []bool{false, true} {
		name := "movetofront"
		if noMTF {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Errors are acceptable here: the comparison is about the
				// work each ordering policy does at a tight width.
				_, _ = router.Route(ckt, 8, router.Options{MaxPasses: 6, NoMoveToFront: noMTF})
			}
		})
	}
}

// BenchmarkSegmentation compares routing the same circuit on single-length
// channels vs a double-line mix (the segmented-channel architecture
// extension).
func BenchmarkSegmentation(b *testing.B) {
	ckt := synthBench(b, "term1")
	mixes := map[string][]int{
		"single":  nil,
		"doubles": {1, 1, 1, 2, 1, 1, 1, 2, 1, 2},
	}
	for name, mix := range mixes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := router.Route(ckt, 10, router.Options{MaxPasses: 8, SegLens: mix}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTradeoffBaselines measures the BRBC / Prim-Dijkstra trade-off
// constructions on the paper's CPU instance shape.
func BenchmarkTradeoffBaselines(b *testing.B) {
	g, net := cpuInstance(6)
	b.Run("prim-dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := graph.NewSPTCache(g)
			if _, err := arbor.PrimDijkstra(cache, net, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brbc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := graph.NewSPTCache(g)
			if _, err := arbor.BRBC(cache, net, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDijkstraStopSet measures the early-termination Dijkstra against
// the full-graph run on a busc-sized fabric.
func BenchmarkDijkstraStopSet(b *testing.B) {
	ckt := synthBench(b, "busc")
	res, fab, err := router.RouteWithFabric(ckt, 8, router.Options{MaxPasses: 8})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	g := fab.Graph()
	src := fab.PinNode(ckt.Nets[0].Pins[0])
	stop := make([]graph.NodeID, 0, len(ckt.Nets[0].Pins))
	for _, p := range ckt.Nets[0].Pins {
		stop = append(stop, fab.PinNode(p))
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Dijkstra(src)
		}
	})
	b.Run("stopset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.DijkstraWithin(src, stop)
		}
	})
}
