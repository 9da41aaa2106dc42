package graph

import (
	"math/rand"
	"testing"
)

// sptEqual reports whether two trees carry identical labels.
func sptEqual(a, b *SPT) bool {
	if a.Source != b.Source || len(a.Dist) != len(b.Dist) {
		return false
	}
	for i := range a.Dist {
		if a.Dist[i] != b.Dist[i] || a.ParentEdge[i] != b.ParentEdge[i] || a.ParentNode[i] != b.ParentNode[i] {
			return false
		}
	}
	return true
}

// TestScratchReuseMatchesFresh runs many Dijkstras through one scratch —
// with SPT buffers recycled between runs — and checks every tree against a
// run on a fresh scratch.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomConnected(rng, 60, 300, 10)
	s := NewDijkstraScratch()
	for iter := 0; iter < 50; iter++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		reused := g.dijkstraWith(s, src, nil)
		fresh := g.dijkstraWith(NewDijkstraScratch(), src, nil)
		if !sptEqual(reused, fresh) {
			t.Fatalf("iter %d: reused scratch diverged from fresh at src %d", iter, src)
		}
		s.RecycleSPT(reused)
	}
	if s.Runs != 50 {
		t.Fatalf("Runs = %d, want 50", s.Runs)
	}
	if s.HeapPushes == 0 || s.Settled == 0 {
		t.Fatal("work counters did not accumulate")
	}

	// Recycled trees also move between kernels on a pin graph: each tree
	// goes back to s and the next search resets it, clearing only the
	// nodes its last search settled. Every few queries a search panics
	// midway; its tree, recycled anyway, must get a full reset instead.
	p := newPinGrid(8, true)
	s = NewDijkstraScratch()
	for q := 0; q < 30; q++ {
		src, goal, stop, seeds, ov := p.randomQuery(rng)
		for _, kc := range kernelCases(src, goal, stop, seeds, ov, p.Bounds) {
			reused, fresh := kc.run(p.Graph, s), kc.run(p.Graph, NewDijkstraScratch())
			if !reused.equal(fresh) {
				t.Fatalf("query %d: %s on a reused scratch diverged from a fresh one", q, kc.name)
			}
			s.RecycleSPT(reused.tree)
		}
		if q%3 == 0 {
			interrupted(p.Graph, s, src, stop, ov)
		}
	}
}

// interrupted runs a goal-directed priced search on s whose bound panics
// midway, then recycles its half-labelled tree into s. The bound's
// coordinates end at src, so the first relaxation of a higher-numbered
// node, after its labels are written, indexes past them.
func interrupted(g *Graph, s *DijkstraScratch, src NodeID, stop []NodeID, ov *Overlay) {
	t := s.takeSPT()
	defer func() {
		recover()
		s.RecycleSPT(t)
	}()
	short := &CoordBounds{X: make([]float64, src+1), Y: make([]float64, src+1)}
	g.search(s, t, query{src: src, stop: stop, ov: ov, h: short.ToSet([]NodeID{src})})
}

// TestScratchStopSetMatchesFresh exercises the early-termination path
// (DijkstraWithin semantics) through a reused scratch: stop nodes get exact
// distances, everything unsettled is Inf.
func TestScratchStopSetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomConnected(rng, 80, 400, 10)
	s := NewDijkstraScratch()
	for iter := 0; iter < 30; iter++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		stop := RandomNet(rng, g, 5)
		reused := g.dijkstraWith(s, src, stop)
		fresh := g.dijkstraWith(NewDijkstraScratch(), src, stop)
		if !sptEqual(reused, fresh) {
			t.Fatalf("iter %d: stop-set run diverged", iter)
		}
		full := g.Dijkstra(src)
		for _, v := range stop {
			if reused.Dist[v] != full.Dist[v] {
				t.Fatalf("stop node %d: dist %v, want exact %v", v, reused.Dist[v], full.Dist[v])
			}
		}
		s.RecycleSPT(reused)
	}
}

// TestScratchAcrossGraphSizes reuses one scratch on graphs of different
// sizes; buffers must resize correctly in both directions.
func TestScratchAcrossGraphSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewDijkstraScratch()
	for _, n := range []int{40, 120, 20, 90} {
		g := RandomConnected(rng, n, 3*n, 5)
		got := g.dijkstraWith(s, 0, nil)
		want := g.dijkstraWith(NewDijkstraScratch(), 0, nil)
		if !sptEqual(got, want) {
			t.Fatalf("n=%d: reused scratch diverged", n)
		}
		if len(got.Dist) != n {
			t.Fatalf("n=%d: SPT sized %d", n, len(got.Dist))
		}
		s.RecycleSPT(got)
	}
	// Pin graphs of varying sizes, each searched by every kernel with the
	// trees recycled into s: a tree finished on one size is reset in full
	// on the next, then by its settled list while the size holds.
	for _, seed := range []int64{1, 2, 2, 3, 1, 5} {
		p := newPinGrid(seed, true)
		src, goal, stop, seeds, ov := p.randomQuery(rng)
		for _, kc := range kernelCases(src, goal, stop, seeds, ov, p.Bounds) {
			got, want := kc.run(p.Graph, s), kc.run(p.Graph, NewDijkstraScratch())
			if !got.equal(want) {
				t.Fatalf("pin graph %d (n=%d): %s on a reused scratch diverged", seed, p.NumNodes(), kc.name)
			}
			s.RecycleSPT(got.tree)
		}
	}
}

// TestScratchEpochWrap forces the epoch counter to wrap around and checks
// that stale marks cannot alias into a fresh run.
func TestScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomConnected(rng, 30, 120, 8)
	s := NewDijkstraScratch()
	first := g.dijkstraWith(s, 0, nil)
	want := g.dijkstraWith(NewDijkstraScratch(), 0, nil)
	if !sptEqual(first, want) {
		t.Fatal("pre-wrap run diverged")
	}
	s.RecycleSPT(first)
	s.ep = ^uint32(0) // next beginRun wraps to 0 and must clear marks
	got := g.dijkstraWith(s, 0, nil)
	if !sptEqual(got, want) {
		t.Fatal("post-wrap run diverged: stale epoch marks aliased")
	}
	if s.ep != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.ep)
	}

	// The pin-neighbour marks wrap too. The first overlay search on a fresh
	// scratch runs at epoch 1 with every pin open, marking every pin
	// neighbour 1; after the wrap, epoch 1 comes round again, and only the
	// neighbours of the one pin this search leaves open may carry it.
	p := newPinGrid(6, true)
	ov := NewOverlay(p.Graph)
	s = NewDijkstraScratch()
	overlaySearch := func() {
		t := s.takeSPT()
		p.search(s, t, query{src: 0, ov: ov})
		s.RecycleSPT(t)
	}
	overlaySearch()
	open := p.Lo
	for v := p.Lo + 1; v < NodeID(p.NumNodes()); v++ {
		ov.Block(v)
	}
	s.ep = ^uint32(0)
	overlaySearch()
	nbr := make([]bool, p.NumNodes())
	for _, a := range p.Adj(open) {
		nbr[a.To] = true
	}
	for v := range nbr {
		if got := s.pinNbr[v] == s.ep; got != nbr[v] {
			t.Fatalf("after the wrap node %d reads as a neighbour of an open pin: %v, want %v", v, got, nbr[v])
		}
	}
}

func TestEdgeSetSemantics(t *testing.T) {
	s := NewDijkstraScratch()
	es := s.EdgeSet(10)
	if !es.Add(3) || es.Add(3) {
		t.Fatal("Add must report first insertion only")
	}
	if !es.Has(3) || es.Has(4) {
		t.Fatal("Has wrong")
	}
	// Re-acquisition empties the set in O(1).
	es2 := s.EdgeSet(10)
	if es2.Has(3) {
		t.Fatal("re-acquired edge set not empty")
	}
	// Epoch wrap must clear stale marks.
	es2.Add(7)
	s.edgeEp = ^uint32(0)
	es3 := s.EdgeSet(10)
	if es3.Has(7) {
		t.Fatal("edge set epoch wrap aliased a stale mark")
	}
}

func TestNodeSetSlots(t *testing.T) {
	s := NewDijkstraScratch()
	ns := s.NodeSet(10)
	for i, v := range []NodeID{4, 2, 9} {
		if !ns.Add(v) {
			t.Fatalf("Add(%d) reported duplicate", v)
		}
		if ns.Slot(v) != int32(i) {
			t.Fatalf("Slot(%d) = %d, want insertion order %d", v, ns.Slot(v), i)
		}
	}
	if ns.Add(2) {
		t.Fatal("duplicate Add succeeded")
	}
	if ns.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ns.Len())
	}
	// Slot on an absent node inserts it.
	if ns.Slot(0) != 3 || ns.Len() != 4 {
		t.Fatal("Slot did not insert absent node")
	}
	ns2 := s.NodeSet(10)
	if ns2.Has(4) || ns2.Len() != 0 {
		t.Fatal("re-acquired node set not empty")
	}
}

// TestSPTCacheRelease checks that releasing a cache recycles its trees into
// the scratch free list and that subsequent queries through a new cache on
// the same scratch still compute correct distances.
func TestSPTCacheRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomConnected(rng, 50, 200, 6)
	s := NewDijkstraScratch()
	c1 := NewSPTCache(g).WithScratch(s)
	c1.Tree(0)
	c1.Tree(7)
	want03 := c1.Dist(0, 3)
	c1.Release()
	if len(s.free) != 2 {
		t.Fatalf("free list holds %d trees after Release, want 2", len(s.free))
	}
	c2 := NewSPTCache(g).WithScratch(s)
	if got := c2.Dist(0, 3); got != want03 {
		t.Fatalf("post-release Dist(0,3) = %v, want %v", got, want03)
	}
	c2.Release()
}
