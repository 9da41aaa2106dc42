// Signal propagation delay through routed trees under the distributed-RC
// (Elmore) model. The paper motivates its arborescence constructions by
// signal delay — "we may wish to reduce signal propagation delay through
// critical paths by using the most direct interconnections" — and notes
// the constructions "can be easily tuned to the specific parasitics of the
// underlying technology". The evaluator below computes per-sink Elmore
// delays of any routing tree over a weighted graph from technology
// parameters, and the aggregate test checks that IDOM's arborescences beat
// IKMB's trees on delay.

package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpgarouter/internal/arbor"
	"fpgarouter/internal/congest"
	"fpgarouter/internal/core"
	"fpgarouter/internal/graph"
)

// Params are lumped technology parasitics. Each routing-graph edge of
// length L contributes resistance RUnit·L + RSwitch and capacitance
// CUnit·L + CSwitch (the switch terms model the programmable switch
// crossed when a route uses the edge); the source drives the tree through
// RDriver, and each net sink adds CSink of load.
type Params struct {
	RUnit   float64 // resistance per unit wirelength
	CUnit   float64 // capacitance per unit wirelength
	RSwitch float64 // resistance of one programmable switch
	CSwitch float64 // capacitance of one programmable switch
	RDriver float64 // source driver output resistance
	CSink   float64 // input capacitance of a sink pin
}

// Xilinx4000Like returns parasitics of plausible mid-90s antifuse/SRAM
// FPGA magnitude (normalized units): switch resistance dominates wire
// resistance, which is why minimizing both pathlength (switches crossed)
// and wirelength matters.
func Xilinx4000Like() Params {
	return Params{RUnit: 1, CUnit: 1, RSwitch: 8, CSwitch: 0.5, RDriver: 4, CSink: 2}
}

// ErrNotSpanned is returned when a requested sink is not in the tree.
var ErrNotSpanned = errors.New("sink not spanned by tree")

// Elmore computes the Elmore delay from net[0] to every sink of the net
// through tree t, which must span the net, interpreting each edge's graph
// weight as its wirelength. It returns per-sink delays (indexed like
// net[1:]) and the maximum.
func Elmore(g *graph.Graph, t graph.Tree, net []graph.NodeID, p Params) ([]float64, float64, error) {
	if len(net) == 0 {
		return nil, 0, errors.New("empty net")
	}
	src := net[0]
	// Tree adjacency.
	adj := make(map[graph.NodeID][]graph.Arc, 2*len(t.Edges))
	for _, id := range t.Edges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], graph.Arc{To: e.V, ID: id})
		adj[e.V] = append(adj[e.V], graph.Arc{To: e.U, ID: id})
	}
	isSink := make(map[graph.NodeID]bool, len(net)-1)
	for _, s := range net[1:] {
		isSink[s] = true
	}

	// Root the tree at the source (iterative DFS), recording parents in
	// visit order so subtree capacitances can be accumulated bottom-up.
	type frame struct {
		node   graph.NodeID
		parent graph.NodeID
		edge   graph.EdgeID
	}
	order := make([]frame, 0, len(adj))
	stack := []frame{{src, graph.None, graph.None}}
	seen := map[graph.NodeID]bool{src: true}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, f)
		for _, a := range adj[f.node] {
			if !seen[a.To] {
				seen[a.To] = true
				stack = append(stack, frame{a.To, f.node, a.ID})
			}
		}
	}
	for _, s := range net[1:] {
		if !seen[s] {
			return nil, 0, fmt.Errorf("%w: sink %d", ErrNotSpanned, s)
		}
	}

	// Bottom-up: subtree capacitance below each node (node's own sink load
	// plus, for non-root nodes, the capacitance of the edge to the parent
	// is accounted at delay time).
	subC := make(map[graph.NodeID]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		c := 0.0
		if isSink[f.node] {
			c += p.CSink
		}
		for _, a := range adj[f.node] {
			if a.To != f.parent && seen[a.To] {
				// Child subtree plus the connecting edge's capacitance.
				c += subC[a.To] + p.CUnit*g.Weight(a.ID) + p.CSwitch
			}
		}
		subC[f.node] = c
	}

	// Top-down: Elmore delay. The driver charges the whole tree; each edge
	// adds R_edge × (half its own C + everything below it).
	delays := make(map[graph.NodeID]float64, len(order))
	totalC := subC[src]
	delays[src] = p.RDriver * totalC
	for _, f := range order[1:] {
		l := g.Weight(f.edge)
		rEdge := p.RUnit*l + p.RSwitch
		cEdge := p.CUnit*l + p.CSwitch
		delays[f.node] = delays[f.parent] + rEdge*(cEdge/2+subC[f.node])
	}

	out := make([]float64, len(net)-1)
	maxd := 0.0
	for i, s := range net[1:] {
		out[i] = delays[s]
		if out[i] > maxd {
			maxd = out[i]
		}
	}
	return out, maxd, nil
}

// CriticalSink returns the index (into net[1:]) and delay of the slowest
// sink of the routed tree.
func CriticalSink(g *graph.Graph, t graph.Tree, net []graph.NodeID, p Params) (int, float64, error) {
	d, _, err := Elmore(g, t, net, p)
	if err != nil {
		return 0, 0, err
	}
	best, bd := 0, 0.0
	for i, v := range d {
		if v > bd {
			best, bd = i, v
		}
	}
	return best, bd, nil
}

func TestElmoreSingleWireClosedForm(t *testing.T) {
	// One edge src--sink of length 3: the delay follows directly from the
	// π-model formula.
	g := graph.New(2)
	g.AddEdge(0, 1, 3)
	tr := graph.NewTree(g, []graph.EdgeID{0})
	p := Params{RUnit: 2, CUnit: 1, RSwitch: 5, CSwitch: 0.5, RDriver: 4, CSink: 2}
	d, maxd, err := Elmore(g, tr, []graph.NodeID{0, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	cEdge := p.CUnit*3 + p.CSwitch // 3.5
	rEdge := p.RUnit*3 + p.RSwitch // 11
	want := p.RDriver*(cEdge+p.CSink) + rEdge*(cEdge/2+p.CSink)
	if math.Abs(d[0]-want) > 1e-9 || math.Abs(maxd-want) > 1e-9 {
		t.Fatalf("delay = %v, want %v", d[0], want)
	}
}

func TestElmoreMonotoneInPathLength(t *testing.T) {
	// On a chain, farther sinks see strictly larger delay.
	g := graph.New(5)
	var edges []graph.EdgeID
	for i := 0; i < 4; i++ {
		edges = append(edges, g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1))
	}
	tr := graph.NewTree(g, edges)
	net := []graph.NodeID{0, 1, 2, 3, 4}
	d, _, err := Elmore(g, tr, net, Xilinx4000Like())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("delay not increasing along chain: %v", d)
		}
	}
}

func TestElmoreSharedTrunkCouplesSinks(t *testing.T) {
	// A Y tree: adding load on one branch raises the delay of the other
	// (through the shared trunk) — the distributed-RC behaviour a pure
	// pathlength metric misses.
	build := func(extraLoad bool) float64 {
		g := graph.New(5)
		e01 := g.AddEdge(0, 1, 2)
		e12 := g.AddEdge(1, 2, 2)
		e13 := g.AddEdge(1, 3, 2)
		edges := []graph.EdgeID{e01, e12, e13}
		net := []graph.NodeID{0, 2, 3}
		if extraLoad {
			e34 := g.AddEdge(3, 4, 4)
			edges = append(edges, e34)
			net = append(net, 4)
		}
		tr := graph.NewTree(g, edges)
		d, _, err := Elmore(g, tr, net, Xilinx4000Like())
		if err != nil {
			t.Fatal(err)
		}
		return d[0] // delay of sink 2, same position in both variants
	}
	if light, heavy := build(false), build(true); heavy <= light {
		t.Fatalf("extra branch load did not increase sibling delay: %v vs %v", light, heavy)
	}
}

func TestElmoreUnspannedSink(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	tr := graph.NewTree(g, []graph.EdgeID{0})
	if _, _, err := Elmore(g, tr, []graph.NodeID{0, 2}, Xilinx4000Like()); err == nil {
		t.Fatal("unspanned sink accepted")
	}
}

func TestCriticalSink(t *testing.T) {
	g := graph.New(4)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e13 := g.AddEdge(1, 3, 10)
	tr := graph.NewTree(g, []graph.EdgeID{e01, e12, e13})
	idx, d, err := CriticalSink(g, tr, []graph.NodeID{0, 2, 3}, Xilinx4000Like())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || d <= 0 {
		t.Fatalf("critical sink = %d (%v), want 1 (the distant sink)", idx, d)
	}
}

// Aggregate: arborescence routing (IDOM) yields lower maximum Elmore delay
// than pure wirelength routing (IKMB) on congested grids — the performance
// claim that motivates the paper.
func TestArborescencesReduceElmoreDelayAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Xilinx4000Like()
	var ikmbSum, idomSum float64
	for trial := 0; trial < 12; trial++ {
		g, err := congest.NewCongestedGrid(rng, 15)
		if err != nil {
			t.Fatal(err)
		}
		net := graph.RandomNet(rng, g.Graph, 6)
		cache := graph.NewSPTCache(g.Graph)
		ikmb, err := core.IKMB(cache, net)
		if err != nil {
			t.Fatal(err)
		}
		idom, err := core.IDOM(cache, net)
		if err != nil {
			t.Fatal(err)
		}
		if err := arbor.VerifyArborescence(cache, idom, net); err != nil {
			t.Fatal(err)
		}
		_, di, err := Elmore(g.Graph, ikmb, net, p)
		if err != nil {
			t.Fatal(err)
		}
		_, dd, err := Elmore(g.Graph, idom, net, p)
		if err != nil {
			t.Fatal(err)
		}
		ikmbSum += di
		idomSum += dd
	}
	if idomSum >= ikmbSum {
		t.Fatalf("IDOM aggregate max delay %v not below IKMB %v", idomSum, ikmbSum)
	}
}
