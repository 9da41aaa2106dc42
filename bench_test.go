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

// BenchmarkCandidateScan measures IKMB's candidate-scan rounds, screened as
// the routers run them (core.IKMBStats), at fixed worker counts on a
// denser instance (|V| = 400, |N| = 8, full-graph pool) where one round
// carries enough base-heuristic work for sharding to matter. Seq
// (workers=1) is the regression oracle the parallel scan is guaranteed
// bit-identical to; interpret the pair together with the GOMAXPROCS it ran
// under.
func BenchmarkCandidateScan(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(rng, 400, 3000, 10)
	net := graph.RandomNet(rng, g, 8)
	for _, c := range []struct {
		name    string
		workers int
	}{{"Seq", 1}, {"Par", 8}} {
		b.Run(c.name, func(b *testing.B) {
			s := graph.NewDijkstraScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(g).WithScratch(s)
				if _, _, err := core.IKMBStats(cache, net, core.Options{Workers: c.workers}); err != nil {
					b.Fatal(err)
				}
				cache.Release()
			}
		})
	}
}

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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, net := range nets {
			fab.BeginNet(net.Pins)
			c := graph.NewSPTCacheWithin(fab.Graph(), stops[k]).WithScratch(s)
			c.Tree(stops[k][0])
			c.Release()
		}
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	}
}

// BenchmarkMinWidthParallel measures the concurrent minimum-width search on
// the smallest Table 2 circuit; BenchmarkMinWidthSeq is the sequential
// reference it is guaranteed to agree with.
func BenchmarkMinWidthParallel(b *testing.B) {
	ckt := synthBench(b, "busc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := router.MinWidth(ckt, 7, router.Options{MaxPasses: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinWidthSeq(b *testing.B) {
	ckt := synthBench(b, "busc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := router.MinWidthSeq(nil, ckt, 7, router.Options{MaxPasses: 6}); err != nil {
			b.Fatal(err)
		}
	}
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
