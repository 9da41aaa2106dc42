package steiner

import (
	"math/rand"
	"slices"
	"testing"

	"fpgarouter/internal/graph"
)

// TestKMBAllocsWarmCache pins the allocation-free base-heuristic
// evaluation: on a warm cache, one KMB call for six terminals plus a
// Steiner candidate — the call the IGMST scan makes per candidate —
// allocates only the edge slice of the tree it returns, and the same call
// screened out by KMBScreened allocates nothing; both calls keep those
// ceilings through the scan's per-round context (KMBRound). Every working
// slice lives on the cache's scratch, so this holds under -race too (no
// sync.Pool on the path). Covered: a plain cache, an overlay-priced cache (the
// pathfinder's) and a scan-worker fork.
func TestKMBAllocsWarmCache(t *testing.T) {
	grid := graph.NewGrid(12, 12, 1)
	g := grid.Graph
	rng := rand.New(rand.NewSource(3))
	for id := 0; id < g.NumEdges(); id++ {
		g.SetWeight(graph.EdgeID(id), float64(1+rng.Intn(4)))
	}
	terms := []graph.NodeID{
		grid.Node(0, 0), grid.Node(11, 0), grid.Node(0, 11),
		grid.Node(11, 11), grid.Node(3, 7), grid.Node(8, 4),
	}
	net := append(append([]graph.NodeID(nil), terms...), grid.Node(6, 6))
	ov := graph.NewOverlay(g)
	for id := 0; id < g.NumEdges(); id += 3 {
		ov.AddPrice(graph.EdgeID(id), 0.5)
	}
	base := graph.NewSPTCache(g).WithScratch(graph.NewDijkstraScratch())
	for _, tc := range []struct {
		name  string
		cache *graph.SPTCache
	}{
		{"plain", base},
		{"overlay", graph.NewSPTCache(g).WithScratch(graph.NewDijkstraScratch()).WithOverlay(ov)},
		{"fork", base.Fork(graph.NewDijkstraScratch())},
	} {
		cache := tc.cache
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: root every terminal, as the IGMST scan does before it
			// evaluates candidates, and grow the scratch buffers.
			for _, v := range terms {
				cache.Tree(v)
			}
			want, err := KMB(cache, net)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.ValidateTree(g, want, net); err != nil {
				t.Fatal(err)
			}
			var got graph.Tree
			allocs := testing.AllocsPerRun(50, func() {
				got, err = KMB(cache, net)
			})
			if err != nil || got.Cost != want.Cost || !slices.Equal(got.Edges, want.Edges) {
				t.Fatalf("warm KMB = %v (cost %v, err %v), want %v (cost %v)", got.Edges, got.Cost, err, want.Edges, want.Cost)
			}
			if allocs > 1 {
				t.Fatalf("KMB made %.0f allocations per call on a warm cache, want ≤ 1 (the returned edge slice)", allocs)
			}
			// Against an incumbent it only ties, the candidate is screened
			// out: no tree, no allocation.
			var screened bool
			allocs = testing.AllocsPerRun(50, func() {
				_, screened, err = KMBScreened(cache, net, want.Cost, 1e-9)
			})
			if err != nil || !screened {
				t.Fatalf("KMBScreened against its own cost: screened %v, err %v", screened, err)
			}
			if allocs != 0 {
				t.Fatalf("a screened-out KMBScreened call made %.0f allocations, want 0", allocs)
			}
			// The scan's per-round context keeps both ceilings.
			r := AcquireKMBRound()
			defer ReleaseKMBRound(r)
			r.Reset(cache, terms)
			allocs = testing.AllocsPerRun(50, func() {
				_, screened, err = r.KMBScreened(cache, net, want.Cost, 1e-9)
			})
			if err != nil || !screened || allocs != 0 {
				t.Fatalf("KMBRound against its own cost: screened %v, err %v, %.0f allocations, want 0", screened, err, allocs)
			}
			allocs = testing.AllocsPerRun(50, func() {
				got, _, err = r.KMBScreened(cache, net, graph.Inf(), 1e-9)
			})
			if err != nil || got.Cost != want.Cost || !slices.Equal(got.Edges, want.Edges) || allocs > 1 {
				t.Fatalf("KMBRound = %v (cost %v, err %v) in %.0f allocations, want %v (cost %v) in ≤ 1", got.Edges, got.Cost, err, allocs, want.Edges, want.Cost)
			}
		})
	}
}
