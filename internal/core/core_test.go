package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgarouter/internal/arbor"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

func cacheFor(g *graph.Graph) *graph.SPTCache { return graph.NewSPTCache(g) }

// star returns a star graph: center node 0, leaves 1..k with unit spokes.
func star(k int) *graph.Graph {
	g := graph.New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	return g
}

// hubGadget is the classic KMB near-worst case: l terminals on a cycle of
// edges weighing cycleW, plus a hub reachable by unit spokes. KMB (driven
// by the terminal distance graph) pays (l−1)·cycleW; the optimum is the
// l-spoke star of cost l. IKMB recovers the hub.
func hubGadget(l int, cycleW float64) (*graph.Graph, []graph.NodeID) {
	g := graph.New(l + 1)
	hub := graph.NodeID(l)
	net := make([]graph.NodeID, l)
	for i := 0; i < l; i++ {
		net[i] = graph.NodeID(i)
		g.AddEdge(graph.NodeID(i), hub, 1)
	}
	for i := 0; i < l; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%l), cycleW)
	}
	return g, net
}

func TestIKMBStarStaysOptimal(t *testing.T) {
	// On a star whose leaves form the net, KMB's second MST pass already
	// recovers the optimum; IKMB must not make it worse.
	g := star(4)
	c := cacheFor(g)
	net := []graph.NodeID{1, 2, 3, 4}
	ikmb, err := IKMB(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateTree(g, ikmb, net); err != nil {
		t.Fatal(err)
	}
	if ikmb.Cost != 4 {
		t.Fatalf("IKMB cost = %v, want 4", ikmb.Cost)
	}
}

func TestIKMBOnKMBWorstCase(t *testing.T) {
	// Hub gadget where KMB pays nearly 2×OPT: IKMB must recover the hub.
	g, net := hubGadget(6, 1.99)
	c := cacheFor(g)
	kmb, err := steiner.KMB(c, net)
	if err != nil {
		t.Fatal(err)
	}
	ikmb, err := IKMB(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if ikmb.Cost != 6 {
		t.Fatalf("IKMB cost = %v, want 6 (hub)", ikmb.Cost)
	}
	if kmb.Cost <= ikmb.Cost {
		t.Fatalf("gadget broken: KMB %v should exceed IKMB %v", kmb.Cost, ikmb.Cost)
	}
}

func TestIZELNeverWorseThanZEL(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(rng, 20, 60, 5)
		net := graph.RandomNet(rng, g, 5)
		c := cacheFor(g)
		zel, err := steiner.ZEL(c, net)
		if err != nil {
			t.Fatal(err)
		}
		izel, err := IZEL(c, net)
		if err != nil {
			t.Fatal(err)
		}
		if izel.Cost > zel.Cost+1e-9 {
			t.Fatalf("trial %d: IZEL %v > ZEL %v", trial, izel.Cost, zel.Cost)
		}
		if err := graph.ValidateTree(g, izel, net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIDOMNeverWorseThanDOMAndIsArborescence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(rng, 25, 80, 5)
		net := graph.RandomNet(rng, g, 5)
		c := cacheFor(g)
		dom, err := arbor.DOM(c, net)
		if err != nil {
			t.Fatal(err)
		}
		idom, err := IDOM(c, net)
		if err != nil {
			t.Fatal(err)
		}
		if idom.Cost > dom.Cost+1e-9 {
			t.Fatalf("trial %d: IDOM %v > DOM %v", trial, idom.Cost, dom.Cost)
		}
		if err := arbor.VerifyArborescence(c, idom, net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIDOMMergesSiblingSinks(t *testing.T) {
	// Source (0,0); sinks (2,1) and (1,2): DOM alone cannot share wire
	// deterministically, but IDOM admits (1,1) as a Steiner point and
	// reaches the optimal arborescence cost 4.
	g := graph.NewGrid(3, 3, 1)
	c := cacheFor(g.Graph)
	net := []graph.NodeID{g.Node(0, 0), g.Node(2, 1), g.Node(1, 2)}
	idom, err := IDOM(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if idom.Cost != 4 {
		t.Fatalf("IDOM cost = %v, want 4", idom.Cost)
	}
	if err := arbor.VerifyArborescence(c, idom, net); err != nil {
		t.Fatal(err)
	}
}

func TestIGMSTCandidateRestriction(t *testing.T) {
	// With the pool restricted to a non-improving node, IGMST returns the
	// plain KMB solution.
	g := star(4)
	c := cacheFor(g)
	net := []graph.NodeID{1, 2, 3, 4}
	kmb, _ := steiner.KMB(c, net)
	restricted, err := IGMST(c, net, steiner.KMB, Options{Candidates: []graph.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Cost != kmb.Cost {
		t.Fatalf("restricted IGMST %v != KMB %v", restricted.Cost, kmb.Cost)
	}
	// With the center in the pool the optimum is found.
	full, err := IGMST(c, net, steiner.KMB, Options{Candidates: []graph.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost != 4 {
		t.Fatalf("pooled IGMST cost = %v, want 4", full.Cost)
	}
}

func TestIGMSTMaxRounds(t *testing.T) {
	// Two independent star gadgets sharing a net: MaxRounds=1 admits only
	// the single best Steiner point.
	g := star(4)
	c := cacheFor(g)
	net := []graph.NodeID{1, 2, 3, 4}
	_, st, err := IGMSTStats(c, net, steiner.KMB, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PointsChosen > 1 {
		t.Fatalf("PointsChosen = %d, want ≤ 1", st.PointsChosen)
	}
}

func TestIGMSTBatchedMatchesQualityClass(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(rng, 20, 60, 5)
		net := graph.RandomNet(rng, g, 5)
		c := cacheFor(g)
		kmb, err := steiner.KMB(c, net)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := IGMST(c, net, steiner.KMB, Options{Batched: true})
		if err != nil {
			t.Fatal(err)
		}
		if batched.Cost > kmb.Cost+1e-9 {
			t.Fatalf("trial %d: batched %v > KMB %v", trial, batched.Cost, kmb.Cost)
		}
		if err := graph.ValidateTree(g, batched, net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIGMSTStatsCountsWork(t *testing.T) {
	g, net := hubGadget(5, 1.9)
	c := cacheFor(g)
	_, st, err := IGMSTStats(c, net, steiner.KMB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations < 2 || st.Rounds < 1 || st.PointsChosen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIGMSTPropagatesNoRoute(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	c := cacheFor(g)
	if _, err := IKMB(c, []graph.NodeID{0, 2}); err == nil {
		t.Fatal("disconnected net accepted")
	}
}

// Property: IKMB is sandwiched between OPT and KMB; IDOM between the
// optimal Steiner cost (a lower bound for arborescences) and DOM.
func TestQuickIteratedBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(12)
		g := graph.RandomConnected(rng, n, n*2, 6)
		k := 2 + rng.Intn(3)
		if k > n {
			k = n
		}
		net := graph.RandomNet(rng, g, k)
		c := cacheFor(g)
		opt, err := steiner.ExactCost(c, net)
		if err != nil {
			return false
		}
		kmb, err := steiner.KMB(c, net)
		if err != nil {
			return false
		}
		ikmb, err := IKMB(c, net)
		if err != nil {
			return false
		}
		if ikmb.Cost < opt-1e-9 || ikmb.Cost > kmb.Cost+1e-9 {
			return false
		}
		dom, err := arbor.DOM(c, net)
		if err != nil {
			return false
		}
		idom, err := IDOM(c, net)
		if err != nil {
			return false
		}
		if idom.Cost < opt-1e-9 || idom.Cost > dom.Cost+1e-9 {
			return false
		}
		return arbor.VerifyArborescence(c, idom, net) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestISPHNeverWorseThanSPH(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(rng, 20, 60, 5)
		net := graph.RandomNet(rng, g, 5)
		c := cacheFor(g)
		sph, err := steiner.SPH(c, net)
		if err != nil {
			t.Fatal(err)
		}
		isph, err := IGMST(c, net, steiner.SPH, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if isph.Cost > sph.Cost+1e-9 {
			t.Fatalf("trial %d: ISPH %v > SPH %v", trial, isph.Cost, sph.Cost)
		}
		if err := graph.ValidateTree(g, isph, net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestISPHRecoversHub(t *testing.T) {
	g, net := hubGadget(6, 1.99)
	c := cacheFor(g)
	isph, err := IGMST(c, net, steiner.SPH, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if isph.Cost != 6 {
		t.Fatalf("ISPH cost = %v, want 6 (hub)", isph.Cost)
	}
}
