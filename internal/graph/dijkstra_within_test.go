package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: DijkstraWithin reports exactly the same distances and path
// costs as the full Dijkstra for every node of the stop set, and anything
// it reports as reachable has a correct path.
func TestQuickDijkstraWithinExactOnStopSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := RandomConnected(rng, n, n*2, 8)
		for i := 0; i < g.NumEdges()/8; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		src := NodeID(rng.Intn(n))
		stop := RandomNet(rng, g, 1+rng.Intn(n))
		full := g.Dijkstra(src)
		within := g.DijkstraWithin(src, stop)
		for _, v := range stop {
			fd, wd := full.Dist[v], within.Dist[v]
			if math.IsInf(fd, 1) != math.IsInf(wd, 1) {
				return false
			}
			if !math.IsInf(fd, 1) && math.Abs(fd-wd) > 1e-9 {
				return false
			}
			if within.Reachable(v) {
				p := within.PathTo(v)
				if math.Abs(g.TotalWeight(p)-wd) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraWithinUnsettledNodesAreInf(t *testing.T) {
	// Line 0-1-2-3-4; stopping at {1} must leave 3, 4 marked unreachable
	// (not with stale tentative distances).
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	spt := g.DijkstraWithin(0, []NodeID{1})
	if spt.Dist[1] != 1 {
		t.Fatalf("dist[1] = %v", spt.Dist[1])
	}
	if spt.Reachable(4) {
		t.Fatal("node 4 should be reported unreachable after early stop")
	}
	if spt.PathTo(4) != nil {
		t.Fatal("PathTo(4) should be nil after early stop")
	}
}

func TestDijkstraWithinNilStopIsFull(t *testing.T) {
	g := NewGrid(4, 4, 1)
	a := g.Dijkstra(0)
	b := g.DijkstraWithin(0, nil)
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatalf("nil stop differs at %d", v)
		}
	}
}

func TestDijkstraWithinDisconnectedStopNode(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	// Node 2 is isolated; the search must terminate and report it Inf.
	spt := g.DijkstraWithin(0, []NodeID{1, 2})
	if !spt.Reachable(1) || spt.Reachable(2) {
		t.Fatalf("dist = %v", spt.Dist)
	}
}

func TestSPTCacheWithinUsesStopSet(t *testing.T) {
	g := NewGrid(10, 10, 1)
	stop := []NodeID{g.Node(1, 1), g.Node(2, 2)}
	c := NewSPTCacheWithin(g.Graph, stop)
	tr := c.Tree(g.Node(1, 1))
	if tr.Dist[g.Node(2, 2)] != 2 {
		t.Fatalf("stop-set dist = %v", tr.Dist[g.Node(2, 2)])
	}
	// Far corner should not have been settled (distance 14+ vs stop max 2).
	if tr.Reachable(g.Node(9, 9)) {
		t.Fatal("far corner settled despite early stop")
	}
}

// TestDijkstraWithinSettledCount pins how much work the early exit does:
// on a line graph with a single stop node, the search settles exactly the
// prefix up to that node (everything nearer plus the node itself) and
// nothing beyond — the Settled counter is the proof, and Reachable is true
// exactly on the settled prefix.
func TestDijkstraWithinSettledCount(t *testing.T) {
	g := New(8)
	for i := 0; i < 7; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	s := NewDijkstraScratch()
	c := NewSPTCacheWithin(g, []NodeID{3}).WithScratch(s)
	before := s.Settled
	spt := c.Tree(0)
	if got := s.Settled - before; got != 4 {
		t.Fatalf("settled %d nodes, want exactly the 0..3 prefix (4)", got)
	}
	for v := 0; v <= 3; v++ {
		if !spt.Reachable(NodeID(v)) {
			t.Fatalf("node %d should be reachable (settled before the stop)", v)
		}
	}
	for v := 4; v < 8; v++ {
		if spt.Reachable(NodeID(v)) {
			t.Fatalf("node %d should read unreachable (never settled)", v)
		}
	}
}

// TestTwoPinStopSetParity backs the sequential router's two-pin nets, whose
// searches stop at the other pin instead of also settling a Steiner pool:
// on random pin grids with a few pins open, the distance and the path
// between two pins, read through a cache whose stop set holds only them,
// are bit-identical to those read through a cache whose stop set also
// holds a random pool of core nodes, and the search settles no more nodes.
// A stop
// set only ends a search; up to the second pin both settle the same nodes
// in the same order, and every node on its path settles before it.
func TestTwoPinStopSetParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var fewer int
	for seed := int64(0); seed < 300; seed++ {
		p := newPinGrid(seed, seed%2 == 0)
		p.openPins(rng, 2+rng.Intn(3))
		var open []NodeID
		for v := p.Lo; int(v) < p.NumNodes(); v++ {
			if p.Degree(v) > 0 {
				open = append(open, v)
			}
		}
		pick := func() NodeID {
			if len(open) > 0 && rng.Intn(4) > 0 {
				return open[rng.Intn(len(open))]
			}
			return NodeID(rng.Intn(p.NumNodes()))
		}
		src, dst := pick(), pick()
		pair := []NodeID{src, dst}
		stop := append([]NodeID(nil), pair...)
		for k := 1 + rng.Intn(int(p.Lo)); k > 0; k-- {
			stop = append(stop, NodeID(rng.Intn(int(p.Lo))))
		}
		narrow := NewSPTCacheWithin(p.Graph, pair).WithScratch(NewDijkstraScratch())
		wide := NewSPTCacheWithin(p.Graph, stop).WithScratch(NewDijkstraScratch())
		nd, wd := narrow.Dist(src, dst), wide.Dist(src, dst)
		np, wp := narrow.Path(src, dst), wide.Path(src, dst)
		if math.Float64bits(nd) != math.Float64bits(wd) || !slices.Equal(np, wp) {
			t.Fatalf("seed %d, %d→%d: pair-only stop set gives %v %v, with a pool %v %v", seed, src, dst, nd, np, wd, wp)
		}
		ns, ws := narrow.Scratch().Settled, wide.Scratch().Settled
		if ns > ws {
			t.Fatalf("seed %d: the pair-only search settled %d nodes, the pool search %d", seed, ns, ws)
		}
		if ns < ws {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("the pair-only search never settled fewer nodes")
	}
}
