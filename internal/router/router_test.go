package router

import (
	"errors"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
)

// tinySpec is a small synthetic circuit for fast router tests.
func tinySpec(series circuits.Series) circuits.Spec {
	return circuits.Spec{
		Name: "tiny", Series: series, Cols: 5, Rows: 5,
		Nets2_3: 12, Nets4_10: 4, NetsOver10: 0,
	}
}

func synth(t *testing.T, spec circuits.Spec, seed int64) *circuits.Circuit {
	t.Helper()
	ckt, err := circuits.Synthesize(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestRouteTinyCircuitAllAlgorithms(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	for _, alg := range []string{AlgKMB, AlgZEL, AlgSPH, AlgIKMB, AlgIZEL, AlgISPH, AlgDJKA, AlgDOM, AlgPFA, AlgIDOM} {
		res, err := Route(ckt, 8, Options{Algorithm: alg, MaxPasses: 8})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.Routed || res.Wirelength <= 0 {
			t.Fatalf("%s: result %+v", alg, res)
		}
		if res.MaxUtil > 8 {
			t.Fatalf("%s: span utilization %d exceeds width", alg, res.MaxUtil)
		}
		// Every net got a tree spanning its pins.
		fab, err := fpga.NewFabric(ckt.ArchAt(8))
		if err != nil {
			t.Fatal(err)
		}
		for i, nr := range res.Nets {
			terms := make([]graph.NodeID, len(ckt.Nets[i].Pins))
			for j, p := range ckt.Nets[i].Pins {
				terms[j] = fab.PinNode(p)
			}
			if err := graph.ValidateTree(fab.Graph(), nr.Tree, terms); err != nil {
				t.Fatalf("%s net %d: %v", alg, i, err)
			}
		}
	}
}

func TestRoutedNetsAreWireDisjoint(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series3000), 2)
	res, err := Route(ckt, 8, Options{MaxPasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := fpga.NewFabric(ckt.ArchAt(8))
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[fpga.WireID]int)
	for i, nr := range res.Nets {
		seen := make(map[fpga.WireID]bool)
		for _, e := range nr.Tree.Edges {
			w := fab.WireOfEdge(e)
			if w < 0 {
				continue
			}
			if seen[w] {
				continue // same net may tap a wire it also traverses
			}
			seen[w] = true
			if prev, taken := owner[w]; taken {
				t.Fatalf("wire %d used by nets %d and %d", w, prev, i)
			}
			owner[w] = i
		}
	}
}

func TestUnroutableAtWidthOne(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	_, err := Route(ckt, 1, Options{MaxPasses: 3})
	if err == nil {
		t.Skip("tiny circuit routed at width 1; congestion too low to test")
	}
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable", err)
	}
}

func TestMinWidthFindsBoundary(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 4)
	w, res, err := MinWidthCtx(nil, ckt, 4, Options{MaxPasses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routed || res.Width != w {
		t.Fatalf("min width result inconsistent: w=%d res=%+v", w, res)
	}
	// One below the minimum must fail (that's what minimality means).
	if w > 1 {
		if _, err := Route(ckt, w-1, Options{MaxPasses: 5}); err == nil {
			t.Fatalf("width %d routed but MinWidthCtx said %d", w-1, w)
		}
	}
}

func TestMoveToFront(t *testing.T) {
	order := []int{5, 3, 8, 1, 9}
	got := moveToFront(order, []int{8, 9})
	want := []int{8, 9, 5, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInitialOrderPrefersBigNets(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 5)
	order := initialOrder(ckt)
	for i := 1; i < len(order); i++ {
		if len(ckt.Nets[order[i-1]].Pins) < len(ckt.Nets[order[i]].Pins) {
			t.Fatal("order not descending by pin count")
		}
	}
}

// An unknown Algorithm or CriticalAlgorithm, and a parallel-mode request
// the pathfinder cannot run (an algorithm other than ikmb or kmb, or
// critical nets), fail Route and MinWidthCtx up front, in both engines: no
// pass runs and no width is probed, and the error says what is wrong
// rather than wrapping ErrUnroutable.
func TestUnknownAlgorithmRejected(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 6)
	const unknown = `router: unknown algorithm "bogus"`
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Algorithm: "bogus"}, unknown},
		{Options{CriticalAlgorithm: "bogus"}, unknown},
		{Options{Algorithm: "bogus", Parallel: true}, unknown},
		{Options{Algorithm: AlgPFA, Parallel: true}, `router: parallel mode requires algorithm "ikmb" or "kmb" (got "pfa")`},
		{Options{Parallel: true, CriticalNets: []int{0}}, `router: parallel mode does not support critical-net classification (1 critical nets requested)`},
	} {
		opts := c.opts
		col := stats.New()
		ctx := NewContext(col)
		_, routeErr := RouteCtx(ctx, ckt, 6, opts)
		_, _, widthErr := MinWidthCtx(ctx, ckt, 1, opts)
		ctx.Close()
		for _, err := range []error{routeErr, widthErr} {
			if err == nil || errors.Is(err, ErrUnroutable) || err.Error() != c.want {
				t.Fatalf("%+v: error %v, want %s", opts, err, c.want)
			}
		}
		if s := col.Snapshot(); s.Passes != 0 || s.WidthProbes != 0 {
			t.Fatalf("%+v: %d passes, %d width probes before the rejection, want none", opts, s.Passes, s.WidthProbes)
		}
	}
}

func TestArborescenceAlgorithmsGiveShortestPathsOnFreshFabric(t *testing.T) {
	// The first net routed on a fresh fabric must have its max pathlength
	// equal to the shortest possible on the pristine graph.
	ckt := synth(t, tinySpec(circuits.Series4000), 7)
	for _, alg := range []string{AlgDJKA, AlgPFA, AlgIDOM} {
		res, err := Route(ckt, 8, Options{Algorithm: alg, MaxPasses: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Identify the net routed first in pass order.
		first := initialOrder(ckt)[0]
		fab, err := fpga.NewFabric(ckt.ArchAt(8))
		if err != nil {
			t.Fatal(err)
		}
		src := fab.PinNode(ckt.Nets[first].Pins[0])
		spt := fab.Graph().Dijkstra(src)
		wantMax := 0.0
		for _, p := range ckt.Nets[first].Pins[1:] {
			if d := spt.Dist[fab.PinNode(p)]; d > wantMax {
				wantMax = d
			}
		}
		if got := res.Nets[first].MaxPath; got > wantMax+1e-9 {
			t.Fatalf("%s: first net max path %v > optimal %v", alg, got, wantMax)
		}
	}
}

func TestRouterSkipsCommitOnFailedNetAndRetries(t *testing.T) {
	// At a width that needs >1 pass, the result must still be complete.
	ckt := synth(t, circuits.Spec{
		Name: "dense", Series: circuits.Series4000, Cols: 4, Rows: 4,
		Nets2_3: 16, Nets4_10: 6,
	}, 8)
	w, res, err := MinWidthCtx(nil, ckt, 3, Options{MaxPasses: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routed {
		t.Fatalf("min width %d result not routed", w)
	}
	for i, nr := range res.Nets {
		if len(nr.Tree.Edges) == 0 {
			t.Fatalf("net %d has empty tree in successful result", i)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 9)
	a, err := Route(ckt, 7, Options{MaxPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(ckt, 7, Options{MaxPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Wirelength != b.Wirelength || a.Passes != b.Passes {
		t.Fatalf("routing not deterministic: %v/%d vs %v/%d", a.Wirelength, a.Passes, b.Wirelength, b.Passes)
	}
	for i := range a.Nets {
		if len(a.Nets[i].Tree.Edges) != len(b.Nets[i].Tree.Edges) {
			t.Fatalf("net %d tree differs between runs", i)
		}
		for j := range a.Nets[i].Tree.Edges {
			if a.Nets[i].Tree.Edges[j] != b.Nets[i].Tree.Edges[j] {
				t.Fatalf("net %d edge %d differs between runs", i, j)
			}
		}
	}
}

func TestSegLensOptionAppliesToFabric(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 10)
	lens := make([]int, 8)
	for i := range lens {
		lens[i] = 1 + i%2
	}
	res, fab, err := RouteWithFabricCtx(nil, ckt, 8, Options{MaxPasses: 8, SegLens: lens})
	if err != nil {
		t.Skipf("segmented width 8 unroutable on this instance: %v", err)
	}
	if !res.Routed {
		t.Fatal("not routed")
	}
	if fab.SegLen(1) != 2 {
		t.Fatal("segment lengths not applied to the fabric")
	}
}

func TestCriticalNetsMixedRouting(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 11)
	// Mark the three highest-fanout nets critical.
	order := initialOrder(ckt)
	crit := []int{ckt.Nets[order[0]].ID, ckt.Nets[order[1]].ID, ckt.Nets[order[2]].ID}
	res, err := Route(ckt, 9, Options{
		Algorithm:    AlgIKMB,
		CriticalNets: crit,
		MaxPasses:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routed {
		t.Fatal("mixed-mode routing failed")
	}
	// Critical nets route first on the fresh fabric with IDOM, so their
	// max pathlength equals the pristine-fabric optimum.
	fab, err := fpga.NewFabric(ckt.ArchAt(9))
	if err != nil {
		t.Fatal(err)
	}
	critSet := map[int]bool{}
	for _, id := range crit {
		critSet[id] = true
	}
	checked := 0
	for i, n := range ckt.Nets {
		if !critSet[n.ID] {
			continue
		}
		src := fab.PinNode(n.Pins[0])
		spt := fab.Graph().Dijkstra(src)
		want := 0.0
		for _, p := range n.Pins[1:] {
			if d := spt.Dist[fab.PinNode(p)]; d > want {
				want = d
			}
		}
		// The very first critical net sees a pristine fabric; later ones
		// may detour around it, so only a ≥-sanity and first-net equality
		// are asserted.
		if checked == 0 && res.Nets[i].MaxPath > want+1e-9 {
			t.Fatalf("first critical net max path %v > pristine optimum %v", res.Nets[i].MaxPath, want)
		}
		if res.Nets[i].MaxPath < want-1e-9 {
			t.Fatalf("net %d max path %v below its lower bound %v", i, res.Nets[i].MaxPath, want)
		}
		checked++
	}
	if checked != 3 {
		t.Fatalf("checked %d critical nets, want 3", checked)
	}
}
