package core

import (
	"math/rand"
	"testing"

	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// TestWarmUpAllocsConstant pins where the warm-up's trees live. At two
// workers IGMSTStats computes the net's terminal trees on its scan forks'
// scratches, but their buffers must come from the cache's own scratch:
// Release then recycles them there, and the next net's warm-up reuses
// them. Were the buffers taken from the fork scratches instead, every
// release would move them to the cache's scratch, the pooled fork
// scratches would drain, and each warmed tree would allocate three
// |V|-sized slices on every later net. So, on warm scratches, a construction
// at two workers may allocate only a constant more than at one worker (the
// forks and the warm-up goroutines), the same at 4 terminals as at 24.
// The candidate pool is empty, so no scan round fans out and the
// difference is the warm-up's alone.
func TestWarmUpAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grid := graph.NewGrid(30, 30, 1)
	g := grid.Graph
	for id := 0; id < g.NumEdges(); id++ {
		g.SetWeight(graph.EdgeID(id), 1+rng.Float64())
	}
	perm := rng.Perm(g.NumNodes())
	for _, terminals := range []int{4, 24} {
		net := make([]graph.NodeID, terminals)
		for i := range net {
			net[i] = graph.NodeID(perm[i])
		}
		allocs := func(workers int) float64 {
			scr := graph.NewDijkstraScratch()
			construct := func() {
				cache := graph.NewSPTCache(g).WithScratch(scr)
				defer cache.Release()
				if _, _, err := IGMSTStats(cache, net, steiner.KMB, Options{Candidates: []graph.NodeID{}, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			}
			construct() // size the scratches and fill their free lists
			return testing.AllocsPerRun(20, construct)
		}
		seq, par := allocs(1), allocs(2)
		t.Logf("%d terminals: %.1f allocations at 1 worker, %.1f at 2", terminals, seq, par)
		// The constant covers the scanner's per-worker slices, two forks,
		// the warm-up's closures and goroutines, and, under -race (where
		// sync.Pool drops a share of puts), the occasional cold fork
		// scratch; a per-tree allocation of three slices would add 72 at 24
		// terminals.
		const extra = 48
		if par > seq+extra {
			t.Fatalf("%d terminals: %.1f allocations at 2 workers > %.1f at 1 worker + %d: warmed trees no longer reuse the cache scratch's buffers", terminals, par, seq, extra)
		}
	}
}
