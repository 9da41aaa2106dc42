package graph

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// warmConcurrently is the caller side of SPTCache.Warm as the candidate
// scanner drives it: workers goroutines, each with its own scratch, pull
// tree indices off a shared cursor.
func warmConcurrently(c *SPTCache, srcs []NodeID, scratches []*DijkstraScratch) {
	c.Warm(srcs, func(n int, fill func(int, *DijkstraScratch)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, s := range scratches {
			wg.Add(1)
			go func(s *DijkstraScratch) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					fill(i, s)
				}
			}(s)
		}
		wg.Wait()
	})
}

// primedScratch returns a scratch with n recycled trees on its free list
// and its counters at zero.
func primedScratch(g *Graph, n int) *DijkstraScratch {
	s := NewDijkstraScratch()
	c := NewSPTCache(g).WithScratch(s)
	for v := 0; v < n; v++ {
		c.Tree(NodeID(v))
	}
	c.Release()
	s.Runs, s.HeapPushes, s.Settled = 0, 0, 0
	return s
}

// TestWarmMatchesTree: trees computed through Warm on other goroutines'
// scratches equal the trees Tree computes, bit for bit, under every search
// configuration a cache can carry; duplicates and already-cached sources
// are skipped; and the trees' buffers belong to the cache's own scratch,
// so Release hands them back there and the worker scratches' free lists
// never drain.
func TestWarmMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(14, 14, 1)
	for id := 0; id < g.NumEdges(); id++ {
		g.SetWeight(EdgeID(id), 1+3*rng.Float64())
	}
	b := gridBounds(g)
	ov := NewOverlay(g.Graph)
	for id := range ov.Prices() {
		ov.Prices()[id] = rng.Float64()
	}
	ov.Block(g.Node(7, 7))
	terms := []NodeID{g.Node(1, 1), g.Node(12, 3), g.Node(4, 11), g.Node(9, 9), g.Node(13, 13)}
	stop := append(append([]NodeID(nil), terms...), g.Node(6, 2), g.Node(2, 8))
	configs := map[string]func(*SPTCache) *SPTCache{
		"plain":          func(c *SPTCache) *SPTCache { return c },
		"bounds":         func(c *SPTCache) *SPTCache { return c.WithBounds(b) },
		"overlay":        func(c *SPTCache) *SPTCache { return c.WithOverlay(ov) },
		"overlay+bounds": func(c *SPTCache) *SPTCache { return c.WithOverlay(ov).WithBounds(b) },
	}
	for name, configure := range configs {
		t.Run(name, func(t *testing.T) {
			ref := configure(NewSPTCacheWithin(g.Graph, stop).WithScratch(NewDijkstraScratch()))
			// Every scratch starts with recycled trees on its free list, so
			// taking a tree from the wrong one shows in the list lengths.
			own := primedScratch(g.Graph, len(terms))
			workers := []*DijkstraScratch{primedScratch(g.Graph, 2), primedScratch(g.Graph, 2)}
			c := configure(NewSPTCacheWithin(g.Graph, stop).WithScratch(own))
			first := c.Tree(terms[0]) // already cached: Warm must skip it
			srcs := append(append([]NodeID(nil), terms...), terms[2], -1, NodeID(g.NumNodes()))
			warmConcurrently(c, srcs, workers)

			if c.Runs != len(terms) {
				t.Fatalf("Runs = %d after warming %d terminals, want %d", c.Runs, len(terms), len(terms))
			}
			if got, _ := c.CachedTree(terms[0]); got != first {
				t.Fatal("Warm replaced a tree the cache already held")
			}
			if len(own.free) != 0 {
				t.Fatalf("the cache's scratch kept %d of its %d free trees", len(own.free), len(terms))
			}
			var workerRuns int64
			for _, s := range workers {
				workerRuns += s.Runs
				if len(s.free) != 2 {
					t.Fatalf("a worker scratch's free list went from 2 trees to %d", len(s.free))
				}
			}
			if workerRuns != int64(len(terms)-1) || own.Runs != 1 {
				t.Fatalf("searches: %d on workers, %d on the cache's scratch; want %d and 1", workerRuns, own.Runs, len(terms)-1)
			}
			for _, v := range terms {
				got, ok := c.CachedTree(v)
				if !ok {
					t.Fatalf("terminal %d not cached after Warm", v)
				}
				if want := ref.Tree(v); !sptEqual(got, want) {
					t.Fatalf("warmed tree rooted at %d differs from Tree's", v)
				}
			}
			c.Release()
			if len(own.free) != len(terms) {
				t.Fatalf("Release returned %d trees to the cache's scratch, want %d", len(own.free), len(terms))
			}
		})
	}
}
