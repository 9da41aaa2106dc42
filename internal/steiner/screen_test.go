package steiner

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fpgarouter/internal/graph"
)

// screenEps is the improvement threshold the screen is tested against: the
// IGMST template's gainEps.
const screenEps = 1e-9

// naiveSum adds w left to right, as graph.TotalWeight does.
func naiveSum(w []float64) float64 {
	s := 0.0
	for _, x := range w {
		s += x
	}
	return s
}

// TestScreenBoundBelowEverySummationOrder checks the float argument behind
// KMBScreened: screenBound, applied to one order's naive sum, never exceeds
// the naive sum of the same terms in any other order. The weights are
// log-uniform over [1e-3, 1e3], so almost none are dyadic and the sums
// round at nearly every step, and m runs up to 200 (the router's unions
// hold at most ~130 edges).
func TestScreenBoundBelowEverySummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(200)
		w := make([]float64, m)
		for i := range w {
			w[i] = math.Pow(10, -3+6*rng.Float64())
		}
		bound := screenBound(naiveSum(w), m)
		check := func(order string) {
			if s := naiveSum(w); bound > s {
				t.Fatalf("trial %d, m=%d: bound %v exceeds the %s sum %v", trial, m, bound, order, s)
			}
		}
		for p := 0; p < 40; p++ {
			rng.Shuffle(m, func(i, j int) { w[i], w[j] = w[j], w[i] })
			check("shuffled")
		}
		slices.Sort(w)
		check("ascending")
		slices.Reverse(w)
		check("descending")
	}
	if got := screenBound(0, 7); got != 0 {
		t.Fatalf("screenBound(0, 7) = %v, want 0", got)
	}
	for _, c := range []struct {
		s float64
		m int
	}{{math.Inf(1), 3}, {5, 1 << 20}} {
		if got := screenBound(c.s, c.m); !math.IsInf(got, -1) {
			t.Fatalf("screenBound(%v, %d) = %v, want -Inf (no bound)", c.s, c.m, got)
		}
	}
}

// cyclicUnion reports whether the deduplicated union of edges contains a
// cycle (it is connected for KMB's expanded paths).
func cyclicUnion(g *graph.Graph, edges []graph.EdgeID) bool {
	seen := map[graph.EdgeID]bool{}
	nodes := map[graph.NodeID]bool{}
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			ge := g.Edge(e)
			nodes[ge.U] = true
			nodes[ge.V] = true
		}
	}
	return len(seen) != len(nodes)-1
}

// screenedAgrees checks KMBScreened's contract against KMB on one cache and
// incumbent: a screened-out call returns no tree and KMB's cost fails
// best − c > eps; any other call returns KMB's tree, edges and cost bits.
func screenedAgrees(t *testing.T, cache *graph.SPTCache, net []graph.NodeID, want graph.Tree, best float64) bool {
	t.Helper()
	got, screened, err := KMBScreened(cache, net, best, screenEps)
	if err != nil {
		t.Fatalf("KMBScreened(best %v): %v", best, err)
	}
	if screened {
		if best-want.Cost > screenEps {
			t.Fatalf("screened out a candidate that improves: best %v, KMB cost %v, gain %v", best, want.Cost, best-want.Cost)
		}
		if got.Edges != nil || got.Cost != 0 {
			t.Fatalf("screened-out call returned a tree %+v", got)
		}
		return true
	}
	if !slices.Equal(got.Edges, want.Edges) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("KMBScreened(best %v) = %v (cost %v), KMB = %v (cost %v)", best, got.Edges, got.Cost, want.Edges, want.Cost)
	}
	return false
}

// incumbents returns the incumbent costs to screen a candidate of KMB cost
// c against: exact ties, gains on both sides of eps and 2·eps, and gains
// far from the threshold in both directions.
func incumbents(c float64) []float64 {
	return []float64{
		c, c - 1, c + 1, c * (1 + 1e-12), c + 1e-15,
		c + screenEps/2, c + screenEps, math.Nextafter(c+screenEps, math.Inf(1)),
		c + 1.5*screenEps, c + 2*screenEps, math.Nextafter(c, math.Inf(1)),
	}
}

// TestKMBScreenedMatchesKMB is the screen's property test. On random
// weighted graphs — real-valued random graphs, and grids with small
// integer weights, whose equal-length routes make trees rooted at
// different terminals expand cyclic unions (weights in {0, 1} do so in
// about 3% of nets) — through a plain cache, an overlay-priced cache (the
// pathfinder's) and a scan-worker fork, every KMBScreened call either
// screens out a candidate whose KMB cost cannot pass the improvement test,
// or returns KMB's exact tree. Errors are KMB's.
func TestKMBScreenedMatchesKMB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var screened, built, cyclic int
	for trial := 0; trial < 600; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.RandomConnected(rng, 40, 120, 10)
		case 1:
			g = graph.NewGrid(7, 7, 1).Graph
			for id := 0; id < g.NumEdges(); id++ {
				g.SetWeight(graph.EdgeID(id), float64(rng.Intn(2)))
			}
		default:
			g = graph.NewGrid(7, 7, 1).Graph
			for id := 0; id < g.NumEdges(); id++ {
				g.SetWeight(graph.EdgeID(id), float64(1+rng.Intn(3)))
			}
		}
		ov := graph.NewOverlay(g)
		for id := 0; id < g.NumEdges(); id += 3 {
			ov.AddPrice(graph.EdgeID(id), 0.25*float64(rng.Intn(4)))
		}
		// The last pin plays the Steiner candidate: as in the IGMST scan,
		// every other terminal's tree is cached before it is evaluated.
		net := graph.RandomNet(rng, g, 3+rng.Intn(6))
		plain := graph.NewSPTCache(g)
		priced := graph.NewSPTCache(g).WithOverlay(ov)
		for _, v := range net[:len(net)-1] {
			plain.Tree(v)
			priced.Tree(v)
		}
		for _, cache := range []*graph.SPTCache{plain, priced, plain.Fork(graph.NewDijkstraScratch())} {
			want, err := KMB(cache, net)
			if err != nil {
				t.Fatal(err)
			}
			if cyclicUnion(g, cache.Scratch().TreeBuffers().Paths) {
				cyclic++
			}
			for _, best := range incumbents(want.Cost) {
				if screenedAgrees(t, cache, net, want, best) {
					screened++
				} else {
					built++
				}
			}
		}
	}
	t.Logf("%d screened, %d built, %d KMB calls with a cyclic union", screened, built, cyclic)
	if screened == 0 || built == 0 || cyclic == 0 {
		t.Fatalf("screened %d, built %d, cyclic %d: a branch went untested", screened, built, cyclic)
	}
	// Errors come from the same checks as KMB's.
	g := star(3)
	_, wantErr := KMB(cacheFor(g), []graph.NodeID{1, 2, 1})
	_, screenedOut, err := KMBScreened(cacheFor(g), []graph.NodeID{1, 2, 1}, 10, screenEps)
	if err == nil || err.Error() != wantErr.Error() || screenedOut {
		t.Fatalf("duplicate pin: KMBScreened err %v (screened %v), KMB err %v", err, screenedOut, wantErr)
	}
}

// TestKMBScreenedCyclicUnionBuildsTree pins the fallback branch on a
// hand-picked instance: on a 6×6 unit grid, the shortest paths KMB expands
// for pins (3,0), (4,5), (1,4) come from trees rooted at different pins
// that break equal-length ties differently, and their union holds a
// cycle. Step 3 then really does drop edges, so the screen must not
// engage, even against an incumbent the candidate only ties.
func TestKMBScreenedCyclicUnionBuildsTree(t *testing.T) {
	grid := graph.NewGrid(6, 6, 1)
	g := grid.Graph
	net := []graph.NodeID{grid.Node(3, 0), grid.Node(4, 5), grid.Node(1, 4)}
	cache := graph.NewSPTCache(g)
	for _, v := range net {
		cache.Tree(v)
	}
	want, err := KMB(cache, net)
	if err != nil {
		t.Fatal(err)
	}
	paths := cache.Scratch().TreeBuffers().Paths
	if !cyclicUnion(g, paths) {
		t.Fatalf("expanded paths %v form a tree; the instance no longer reaches the fallback", paths)
	}
	for _, best := range incumbents(want.Cost) {
		if screenedAgrees(t, cache, net, want, best) {
			t.Fatalf("screened a cyclic union out against incumbent %v", best)
		}
	}
}

// TestKMBScreenedExactTie screens out a candidate whose gain is exactly 0:
// three pins around a hub, where adding the hub as a terminal reproduces
// the star KMB already builds.
func TestKMBScreenedExactTie(t *testing.T) {
	g := star(3)
	cache := cacheFor(g)
	net := []graph.NodeID{1, 2, 3}
	best, err := KMB(cache, net)
	if err != nil {
		t.Fatal(err)
	}
	withHub := []graph.NodeID{1, 2, 3, 0}
	want, err := KMB(cache, withHub)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost-want.Cost != 0 {
		t.Fatalf("gain %v, want exactly 0", best.Cost-want.Cost)
	}
	if !screenedAgrees(t, cache, withHub, want, best.Cost) {
		t.Fatal("a candidate with gain exactly 0 was not screened out")
	}
}

// TestKMBScreenedGainJustAboveEps keeps a candidate whose gain lies between
// eps and 2·eps. Three pins form a triangle of direct edges of weight w,
// and a hub joins each pin at weight 1. Without the hub, KMB links the pins
// directly (cost 2w); with it, KMB builds the star (cost 3). With
// w = 1.5 + 0.75·eps, the hub's gain 2w − 3 is about 1.5·eps: it improves,
// so the screen must build its tree.
func TestKMBScreenedGainJustAboveEps(t *testing.T) {
	const hub = 3
	w := 1.5 + 0.75*screenEps
	g := graph.New(4)
	g.AddEdge(0, 1, w)
	g.AddEdge(1, 2, w)
	g.AddEdge(0, 2, w)
	for v := graph.NodeID(0); v < 3; v++ {
		g.AddEdge(v, hub, 1)
	}
	cache := cacheFor(g)
	best, err := KMB(cache, []graph.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	net := []graph.NodeID{0, 1, 2, hub}
	want, err := KMB(cache, net)
	if err != nil {
		t.Fatal(err)
	}
	if gain := best.Cost - want.Cost; gain <= screenEps || gain >= 2*screenEps {
		t.Fatalf("gain %v, want in (eps, 2·eps)", gain)
	}
	if screenedAgrees(t, cache, net, want, best.Cost) {
		t.Fatal("screened out a candidate that improves by more than eps")
	}
}
