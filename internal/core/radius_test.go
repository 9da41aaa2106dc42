package core

import (
	"math"
	"math/rand"
	"testing"

	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// TestSearchRadiusCoversRounding: a Dijkstra label is a naive sum of a
// path's weights, from the root on, and a tree's cost a naive sum of its
// edges in edge order. When the path lies in a tree that improves on an
// incumbent b (the tree's cost is below b), the label must not exceed
// searchRadius(b, n) for any graph of n > m nodes, m being the tree's edge
// count; here the path is a shuffled subset of the tree's weights (all of
// them, often), and b the smallest float above the tree's cost.
func TestSearchRadiusCoversRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	naive := func(w []float64) float64 {
		s := 0.0
		for _, x := range w {
			s += x
		}
		return s
	}
	for trial := 0; trial < 4000; trial++ {
		m := 1 + rng.Intn(200)
		w := make([]float64, m)
		for i := range w {
			w[i] = math.Pow(10, -3+6*rng.Float64())
		}
		b := math.Nextafter(naive(w), math.Inf(1))
		r := searchRadius(b, m+1)
		for p := 0; p < 20; p++ {
			rng.Shuffle(m, func(i, j int) { w[i], w[j] = w[j], w[i] })
			path := w
			if p%2 == 1 {
				path = w[:1+rng.Intn(m)]
			}
			if d := naive(path); d > r {
				t.Fatalf("trial %d, m=%d: a label of %v exceeds the radius %v of incumbent %v", trial, m, d, r, b)
			}
		}
	}
	if got := searchRadius(0, 7); got != 0 {
		t.Fatalf("searchRadius(0, 7) = %v, want 0", got)
	}
	for _, c := range []struct {
		b float64
		n int
	}{{math.Inf(1), 3}, {5, 1 << 20}} {
		if got := searchRadius(c.b, c.n); !math.IsInf(got, 1) {
			t.Fatalf("searchRadius(%v, %d) = %v, want +Inf (no bound)", c.b, c.n, got)
		}
	}
}

// TestIKMBTreesExactWithinRadiusParity checks the invariant the radius
// argument rests on (DESIGN.md §5) where IKMBStats reads trees after its
// first KMB call: at every batched re-admission on a plain cache, each
// cached tree of the net KMB is handed reads, at every node, either the
// unbounded search's label and parent or +Inf. A tree still paused, with
// tentative labels, or cut short anywhere but beyond its radius, fails.
func TestIKMBTreesExactWithinRadiusParity(t *testing.T) {
	checked := 0
	for c := range screenCases(t) {
		if c.newCache().Overlay() != nil {
			continue
		}
		ref := c.newCache()
		for _, workers := range []int{1, 2} {
			calls := 0
			H := func(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
				if calls++; calls > 1 {
					for _, v := range net {
						tr, ok := cache.CachedTree(v)
						if !ok {
							continue
						}
						full := ref.Tree(v)
						for x, d := range tr.Dist {
							if d != graph.Inf() && (d != full.Dist[x] || tr.ParentEdge[x] != full.ParentEdge[x]) {
								t.Fatalf("%s, %d workers: the tree at %d reads %v at node %d, the unbounded one %v", c.name, workers, v, d, x, full.Dist[x])
							}
						}
						checked++
					}
				}
				return steiner.KMB(cache, net)
			}
			cache := c.newCache()
			opts := Options{Candidates: c.pool, Batched: true, Workers: workers}
			if _, _, err := iterate(cache, c.net, H, true, opts, true); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			cache.Release()
		}
	}
	if checked == 0 {
		t.Fatal("no re-admission read a tree")
	}
}
