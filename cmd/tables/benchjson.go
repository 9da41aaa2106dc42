// Benchmark JSON emission: `tables -bench-json FILE` runs the router
// micro-benchmarks that track this repository's performance work — pooled
// vs unpooled iterated KMB, and the parallel vs sequential minimum-width
// search — via testing.Benchmark and writes machine-readable results.
// CI and the experiments harness diff these files across commits.
package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/core"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

// benchRuns is how many times a full -bench-json run times every entry,
// in round-robin order (every entry once, then every entry again, ...), so
// that machine drift over the run spreads across all entries instead of
// landing on whichever ran during it. -bench-quick times each entry once.
const benchRuns = 5

// BenchResult is one benchmark's outcome in the emitted JSON file.
// GoMaxProcs is recorded per entry — not just in the file header — because
// the parallel benchmarks' numbers are meaningless without the hardware
// parallelism they ran under, and entries from different runs get merged
// into comparison sheets.
//
// NsPerOp is the median over the entry's Runs timings, and NsPerOpMin and
// NsPerOpMax their spread; Iterations, AllocsPerOp and BytesPerOp come from
// the median run. A cross-commit change in NsPerOp smaller than either
// side's spread does not separate the commits.
type BenchResult struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	// EvalsPerOp is recorded for the CandidateScan entries: the
	// base-heuristic evaluations one operation performs, from one untimed
	// instrumented run (the construction is deterministic, so every timed
	// iteration does identical work).
	EvalsPerOp int64 `json:"evals_per_op,omitempty"`
	// ExpandedNodesPerOp is recorded for the SSSP entries: nodes settled by
	// one operation (from one untimed instrumented run — the searches are
	// deterministic). It is the work metric that separates goal-directed
	// search from plain Dijkstra beyond wall-clock noise: SSSP_AStar must
	// expand strictly fewer nodes than SSSP_CSR on busc.
	ExpandedNodesPerOp int64 `json:"expanded_nodes_per_op,omitempty"`
	// IterationsPerOp is recorded for the RouteBuscParallel entries: the
	// negotiated-congestion iterations one converged route performs (from
	// one untimed instrumented run — the engine is deterministic, and
	// worker count does not change the iteration trajectory). The
	// Parallel1/Parallel4 pair therefore does identical routing work, so
	// their ns_per_op ratio is the net-level parallel speedup.
	IterationsPerOp int64 `json:"iterations_per_op,omitempty"`
	// EdgesRippedPerOp / EdgesRetainedPerOp are recorded for the
	// RouteZ03ParallelIncremental entry: previous-tree edges discarded and
	// kept across one converged route's iterations. The retained share is
	// the partial rip-up working.
	EdgesRippedPerOp   int64 `json:"edges_ripped_per_op,omitempty"`
	EdgesRetainedPerOp int64 `json:"edges_retained_per_op,omitempty"`
}

// benchFile is the emitted document: results plus enough provenance to
// compare runs.
type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	GitCommit   string        `json:"git_commit"`
	GoVersion   string        `json:"go_version"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Results     []BenchResult `json:"results"`
}

// gitCommit resolves the commit the binary is benchmarking: the working
// tree's HEAD when run inside a checkout (suffixed "-dirty" when tracked
// files differ from it, as when results are regenerated before the change
// that produced them is committed), else the VCS stamp Go embeds at build
// time, else "unknown" — entries stay attributable across PRs even when
// the binary travels without its repository.
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
				s += "-dirty"
			}
			return s
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "vcs.revision" && set.Value != "" {
				return set.Value
			}
		}
	}
	return "unknown"
}

// benchInstance mirrors the root benchmarks' CPU-time instance shape
// (|V| = 50, |E| = 1000, |N| = 5, the paper's Section 5 timing setup).
func benchInstance(seed int64) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(rng, 50, 1000, 10)
	return g, graph.RandomNet(rng, g, 5)
}

// scanInstance is a denser instance sized so one IGMST candidate-scan round
// does enough base-heuristic work for sharding to be visible, and the net
// is wide enough that the construction admits several Steiner points, so
// it runs several scan rounds (|V| = 400, |E| = 3000, |N| = 12, full-graph
// candidate pool, 3 admissions at seed 2).
func scanInstance(seed int64) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(rng, 400, 3000, 10)
	return g, graph.RandomNet(rng, g, 12)
}

// writeBenchJSON runs the tracked micro-benchmarks benchRuns times each,
// round-robin, and writes path. quick times each entry once and skips the
// whole-circuit benchmarks (the minimum-width search and full busc and z03
// routes), leaving a CI-smoke-sized subset that still exercises the pooled
// cache and the parallel candidate scan.
func writeBenchJSON(path string, quick bool) error {
	g, net := benchInstance(1)
	sg, snet := scanInstance(2)
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		return fmt.Errorf("bench-json: circuit busc not registered")
	}
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		return err
	}
	mwOpts := router.Options{MaxPasses: 6}
	// benchScan measures IKMB as the routers run it (core.IKMBStats, with
	// the certified screen in exhaustive scans) end-to-end at a fixed
	// worker count; the Seq/Par pair isolates the candidate-scan
	// parallelization (identical work, identical results, different
	// fan-out).
	benchScan := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			s := graph.NewDijkstraScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(sg).WithScratch(s)
				if _, _, err := core.IKMBStats(cache, snet, core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				cache.Release()
			}
		}
	}
	// scanWork instruments one untimed run of the same workload, giving the
	// evals_per_op provenance for the scan entries.
	scanWork := func(workers int) func() int64 {
		return func() int64 {
			cache := graph.NewSPTCache(sg)
			defer cache.Release()
			_, st, err := core.IKMBStats(cache, snet, core.Options{Workers: workers})
			if err != nil {
				return 0
			}
			return st.Evaluations
		}
	}
	// benchRoute measures the full router on busc at the paper's width.
	benchRoute := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := router.Route(ckt, spec.PaperIKMB, router.Options{MaxPasses: 6, CandidateWorkers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The SSSP pair times one early-stopping shortest-path sweep over real
	// busc nets on the paper fabric: the CSR weight-stream loop (SSSP_CSR)
	// and the goal-directed stop-set search under the fabric's coordinate
	// bound (SSSP_AStar — identical terminal distances, strictly fewer
	// expanded nodes). One op = one SSSP per sampled net, on a warm scratch
	// with the SPT recycled.
	fab, err := fpga.NewFabric(ckt.ArchAt(10))
	if err != nil {
		return err
	}
	var ssspNets [][]graph.NodeID
	for _, net := range ckt.Nets {
		terms := make([]graph.NodeID, len(net.Pins))
		for j, p := range net.Pins {
			terms[j] = fab.PinNode(p)
		}
		ssspNets = append(ssspNets, terms)
		if len(ssspNets) == 32 {
			break
		}
	}
	runSSSP := func(astar bool, s *graph.DijkstraScratch) {
		gg := fab.Graph()
		bnd := fab.Bounds()
		for _, terms := range ssspNets {
			var t *graph.SPT
			if astar {
				t = gg.DijkstraWithinBounded(s, terms[0], terms, bnd)
			} else {
				t = gg.DijkstraWithinScratch(s, terms[0], terms)
			}
			s.RecycleSPT(t)
		}
	}
	benchSSSP := func(astar bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := graph.NewDijkstraScratch()
			runSSSP(astar, s) // warm the scratch buffers before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSSSP(astar, s)
			}
		}
	}
	ssspExpanded := func(astar bool) func() int64 {
		return func() int64 {
			s := graph.NewDijkstraScratch()
			runSSSP(astar, s)
			return s.Settled
		}
	}
	// The per-net pair times the searches as the routers run them, on busc
	// at its paper width, from each of the first 32 nets' first pin to its
	// pins plus Steiner-candidate pool (margin 2, at most 1024 nodes):
	// SSSP_RouterNet opens the net's pins with BeginNet and runs the
	// sequential router's stop-set Dijkstra; SSSP_PathfinderNet runs the
	// pathfinder's goal-directed search under an overlay that blocks every
	// other pin, at zero prices. Unlike the trio's fresh fabric, where every
	// tap is enabled, both see only the net's own pins, which is what lets
	// the searches skip the other pins' taps. Both search through a per-net
	// cache on a warm scratch; the root package's benchmarks of the same
	// names run the same loops. Each has its own fabric: the pathfinder
	// searches a fabric in its reset state, which BeginNet would disturb.
	rfab, err := fpga.NewFabric(ckt.ArchAt(spec.PaperIKMB))
	if err != nil {
		return err
	}
	pfab, err := fpga.NewFabric(ckt.ArchAt(spec.PaperIKMB))
	if err != nil {
		return err
	}
	netPins := ckt.Nets[:min(32, len(ckt.Nets))]
	netStops := make([][]graph.NodeID, len(netPins))
	for i, net := range netPins {
		for _, p := range net.Pins {
			netStops[i] = append(netStops[i], pfab.PinNode(p))
		}
		netStops[i] = append(netStops[i], pfab.SteinerPool(net.Pins, 2, 1024)...)
	}
	netOv := graph.NewOverlay(pfab.Graph())
	pinLo, pinHi := pfab.PinNodeRange()
	for v := pinLo; v < pinHi; v++ {
		netOv.Block(v)
	}
	runNets := func(pathfinder bool, s *graph.DijkstraScratch) {
		for k, net := range netPins {
			stop := netStops[k]
			terms := stop[:len(net.Pins)]
			var c *graph.SPTCache
			if pathfinder {
				for _, v := range terms {
					netOv.Unblock(v)
				}
				c = graph.NewSPTCacheWithin(pfab.Graph(), stop).WithScratch(s).WithBounds(pfab.Bounds()).WithOverlay(netOv)
			} else {
				rfab.BeginNet(net.Pins)
				c = graph.NewSPTCacheWithin(rfab.Graph(), stop).WithScratch(s)
			}
			c.Tree(terms[0])
			c.Release()
			if pathfinder {
				for _, v := range terms {
					netOv.Block(v)
				}
			}
		}
	}
	benchNets := func(pathfinder bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := graph.NewDijkstraScratch()
			runNets(pathfinder, s) // warm the scratch buffers before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runNets(pathfinder, s)
			}
		}
	}
	netsExpanded := func(pathfinder bool) func() int64 {
		return func() int64 {
			s := graph.NewDijkstraScratch()
			runNets(pathfinder, s)
			return s.Settled
		}
	}
	// benchParallel measures the pathfinder-mode router on busc at the
	// paper's width with a fixed net-worker count; pfIters instruments one
	// untimed run for the iterations_per_op provenance.
	benchParallel := func(netWorkers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := router.Route(ckt, spec.PaperIKMB, router.Options{Parallel: true, NetWorkers: netWorkers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pfIters := func() int64 {
		res, err := router.Route(ckt, spec.PaperIKMB, router.Options{Parallel: true})
		if err != nil {
			return 0
		}
		return int64(res.Passes)
	}
	// A bench is timed by testing.Benchmark over fn, or, when hand is set,
	// by one call of hand, which returns its own result.
	type bench struct {
		name   string
		fn     func(b *testing.B)
		hand   func() (BenchResult, error)
		work   func() int64
		expand func() int64
		iters  func() int64
	}
	benches := []bench{
		{name: "BenchmarkIKMB_Pooled", fn: func(b *testing.B) {
			s := graph.NewDijkstraScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache := graph.NewSPTCache(g).WithScratch(s)
				if _, err := core.IKMB(cache, net); err != nil {
					b.Fatal(err)
				}
				cache.Release()
			}
		}},
		{name: "BenchmarkIKMB_Unpooled", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IKMB(graph.NewSPTCache(g), net); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "BenchmarkCandidateScanSeq", fn: benchScan(1), work: scanWork(1)},
		{name: "BenchmarkCandidateScanPar", fn: benchScan(8), work: scanWork(8)},
		{name: "BenchmarkSSSP_CSR", fn: benchSSSP(false), expand: ssspExpanded(false)},
		{name: "BenchmarkSSSP_AStar", fn: benchSSSP(true), expand: ssspExpanded(true)},
		{name: "BenchmarkSSSP_RouterNet", fn: benchNets(false), expand: netsExpanded(false)},
		{name: "BenchmarkSSSP_PathfinderNet", fn: benchNets(true), expand: netsExpanded(true)},
	}
	if !quick {
		benches = append(benches,
			bench{name: "BenchmarkRouteBuscSeq", fn: benchRoute(1)},
			bench{name: "BenchmarkRouteBuscPar", fn: benchRoute(8)},
			bench{name: "BenchmarkRouteBuscParallel1", fn: benchParallel(1), iters: pfIters},
			bench{name: "BenchmarkRouteBuscParallel4", fn: benchParallel(4), iters: pfIters},
			bench{name: "BenchmarkMinWidth", fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := router.MinWidth(ckt, 7, mwOpts); err != nil {
						b.Fatal(err)
					}
				}
			}},
		)
		// The z03 stress case is the hardest paper circuit: far too slow for
		// testing.Benchmark's auto-scaling, and the engine is deterministic,
		// so one hand-timed route is one timing. runtime.MemStats deltas
		// around the run give its allocation counts, which testing.Benchmark
		// would otherwise report, and a stats collector supplies the rip-up
		// provenance.
		z03spec, ok := circuits.SpecByName("z03")
		if !ok {
			return fmt.Errorf("bench-json: circuit z03 not registered")
		}
		z03, err := circuits.Synthesize(z03spec, 1)
		if err != nil {
			return err
		}
		benches = append(benches, bench{name: "BenchmarkRouteZ03ParallelIncremental", hand: func() (BenchResult, error) {
			col := stats.New()
			rctx := router.NewContext(col)
			defer rctx.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := router.RouteCtx(rctx, z03, z03spec.PaperIKMB, router.Options{Parallel: true})
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return BenchResult{}, err
			}
			snap := col.Snapshot()
			return BenchResult{
				Iterations:         1,
				NsPerOp:            float64(elapsed.Nanoseconds()),
				AllocsPerOp:        int64(after.Mallocs - before.Mallocs),
				BytesPerOp:         int64(after.TotalAlloc - before.TotalAlloc),
				IterationsPerOp:    int64(res.Passes),
				EdgesRippedPerOp:   snap.EdgesRipped,
				EdgesRetainedPerOp: snap.EdgesRetained,
			}, nil
		}})
	}
	// Warm-up. The first testing.Benchmark in a fresh process measures a few
	// percent slow: the GC heap is still growing toward its steady state, so
	// the earliest iterations pay extra collections. Unwarmed, this showed up
	// as a phantom ~4% gap between IKMB_Pooled and IKMB_Unpooled — whichever
	// ran first lost (under `go test -bench` the pooled variant is
	// consistently the faster one). Burn the same workload first so every
	// entry measures against a settled heap.
	for i := 0; i < 300; i++ {
		if _, err := core.IKMB(graph.NewSPTCache(g), net); err != nil {
			return err
		}
	}
	runs := benchRuns
	if quick {
		runs = 1
	}
	timed := make([][]BenchResult, len(benches))
	for r := 1; r <= runs; r++ {
		for i, bench := range benches {
			fmt.Fprintf(os.Stderr, "bench-json: run %d/%d: %s\n", r, runs, bench.name)
			if bench.hand != nil {
				res, err := bench.hand()
				if err != nil {
					return fmt.Errorf("%s: %w", bench.name, err)
				}
				timed[i] = append(timed[i], res)
				continue
			}
			b := testing.Benchmark(bench.fn)
			timed[i] = append(timed[i], BenchResult{
				Iterations:  b.N,
				NsPerOp:     float64(b.T.Nanoseconds()) / float64(b.N),
				AllocsPerOp: b.AllocsPerOp(),
				BytesPerOp:  b.AllocedBytesPerOp(),
			})
		}
	}
	out := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GitCommit:   gitCommit(),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	for i, bench := range benches {
		ts := timed[i]
		slices.SortFunc(ts, func(a, b BenchResult) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		res := ts[len(ts)/2]
		res.Name = bench.name
		res.Runs = len(ts)
		res.NsPerOpMin, res.NsPerOpMax = ts[0].NsPerOp, ts[len(ts)-1].NsPerOp
		res.GoMaxProcs = runtime.GOMAXPROCS(0)
		if bench.work != nil {
			res.EvalsPerOp = bench.work()
		}
		if bench.expand != nil {
			res.ExpandedNodesPerOp = bench.expand()
		}
		if bench.iters != nil {
			res.IterationsPerOp = bench.iters()
		}
		out.Results = append(out.Results, res)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchmark results written to %s\n", path)
	return nil
}
