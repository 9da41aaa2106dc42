package steiner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
)

// roundInstance is one scan round to replay through a KMBRound: the
// spanned nodes, the candidates and a fresh cache per call.
type roundInstance struct {
	name     string
	spanned  []graph.NodeID
	cands    []graph.NodeID
	newCache func() *graph.SPTCache
}

// isolate disables every edge at v, so no search reaches it.
func isolate(g *graph.Graph, v graph.NodeID) {
	for _, a := range g.Adj(v) {
		g.SetEnabled(a.ID, false)
	}
}

// allNodes returns every node of g plus the two nearest out-of-range IDs.
func allNodes(g *graph.Graph) []graph.NodeID {
	c := []graph.NodeID{-1, graph.NodeID(g.NumNodes())}
	for v := range g.NumNodes() {
		c = append(c, graph.NodeID(v))
	}
	return c
}

// roundInstances yields unit-weight grids (Prim ties everywhere), grids
// of weights 0 and 1 (trees rooted at different nodes break many more ties
// differently), random real-weighted graphs, overlay-priced grids with
// blocked nodes, and the multi-pin nets of two tiny fabrics (pin boundary,
// BeginNet, a stop-set cache, plain and overlay-priced), with spanned sets
// of 1 to 8 nodes, after one hand-picked 3×3 grid of weights 0 and 1 on
// which a path walked for candidate 7 enters the union through a path
// another tree expanded and leaves it again (a walk stops early only at a
// path expanded in its own tree).
// Some grid instances isolate a node, which makes it an unreachable
// candidate, or a spanned node, which makes CheckNet(spanned) fail.
// The fabric instances call BeginNet, so replay each before the next.
func roundInstances(t *testing.T) func(yield func(roundInstance) bool) {
	return func(yield func(roundInstance) bool) {
		tied := graph.NewGrid(3, 3, 1).Graph
		for id, w := range "010001100110" {
			tied.SetWeight(graph.EdgeID(id), float64(w-'0'))
		}
		if !yield(roundInstance{"tied3x3", []graph.NodeID{6, 2, 5}, allNodes(tied), func() *graph.SPTCache {
			return graph.NewSPTCache(tied).WithScratch(graph.NewDijkstraScratch())
		}}) {
			return
		}
		rng := rand.New(rand.NewSource(23))
		for trial := range 128 {
			var g *graph.Graph
			var ov *graph.Overlay
			family := []string{"unit", "binary", "random", "priced"}[trial%4]
			switch family {
			case "unit":
				g = graph.NewGrid(6, 6, 1).Graph
			case "binary":
				g = graph.NewGrid(6, 6, 1).Graph
				for id := range g.NumEdges() {
					g.SetWeight(graph.EdgeID(id), float64(rng.Intn(2)))
				}
			case "random":
				g = graph.RandomConnected(rng, 30, 80, 10)
			default:
				g = graph.NewGrid(6, 6, 1).Graph
				for id := range g.NumEdges() {
					g.SetWeight(graph.EdgeID(id), float64(1+rng.Intn(3)))
				}
				ov = graph.NewOverlay(g)
				for id := 0; id < g.NumEdges(); id += 3 {
					ov.AddPrice(graph.EdgeID(id), 0.25*float64(rng.Intn(4)))
				}
			}
			spanned := graph.RandomNet(rng, g, 1+trial/4%8)
			for range 2 {
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				switch {
				case ov != nil && !slices.Contains(spanned, v):
					ov.Block(v)
				case family == "unit" && (trial%5 == 0 || !slices.Contains(spanned, v)):
					isolate(g, v)
				}
			}
			newCache := func() *graph.SPTCache {
				c := graph.NewSPTCache(g).WithScratch(graph.NewDijkstraScratch())
				if ov != nil {
					c = c.WithOverlay(ov)
				}
				return c
			}
			if !yield(roundInstance{fmt.Sprintf("%s%d", family, trial), spanned, allNodes(g), newCache}) {
				return
			}
		}
		for _, series := range []circuits.Series{circuits.Series3000, circuits.Series4000} {
			spec := circuits.Spec{Name: "tiny", Series: series, Cols: 5, Rows: 5, Nets2_3: 12, Nets4_10: 4}
			ckt, err := circuits.Synthesize(spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			fab, err := fpga.NewFabric(spec.ArchAt(5))
			if err != nil {
				t.Fatal(err)
			}
			g := fab.Graph()
			ov := graph.NewOverlay(g)
			for id := 0; id < g.NumEdges(); id += 2 {
				ov.AddPrice(graph.EdgeID(id), 0.5*float64(rng.Intn(3)))
			}
			var foreign []graph.NodeID
			for _, n := range ckt.Nets {
				foreign = append(foreign, fab.PinNode(n.Pins[0]))
			}
			for _, n := range ckt.Nets {
				if len(n.Pins) < 3 {
					continue
				}
				fab.BeginNet(n.Pins)
				var net []graph.NodeID
				for _, p := range n.Pins {
					net = append(net, fab.PinNode(p))
				}
				pool := fab.SteinerPool(n.Pins, 2, 0)
				stop := append(append([]graph.NodeID(nil), net...), pool...)
				// Admitted Steiner points join the spanned set after the
				// pins; foreign pins are unreachable candidates.
				spanned := append(slices.Clone(net), pool[:rng.Intn(4)]...)
				cands := append(slices.Clone(pool), foreign...)
				name := fmt.Sprintf("%v/net%d", series, n.ID)
				plain := func() *graph.SPTCache {
					return graph.NewSPTCacheWithin(g, stop).WithScratch(graph.NewDijkstraScratch())
				}
				priced := func() *graph.SPTCache { return plain().WithBounds(fab.Bounds()).WithOverlay(ov) }
				if !yield(roundInstance{name, spanned, cands, plain}) ||
					!yield(roundInstance{name + "/priced", spanned, cands, priced}) {
					return
				}
			}
		}
	}
}

// sameOutcome reports whether two KMBScreened outcomes agree: the same tree
// edges and cost bits and screened flag, or errors of the same class.
func sameOutcome(got graph.Tree, gotScreened bool, gotErr error, want graph.Tree, wantScreened bool, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error() &&
			errors.Is(gotErr, ErrNoRoute) == errors.Is(wantErr, ErrNoRoute) && !gotScreened && !wantScreened
	}
	return gotScreened == wantScreened && slices.Equal(got.Edges, want.Edges) &&
		math.Float64bits(got.Cost) == math.Float64bits(want.Cost)
}

// roundBests returns the incumbents to screen a candidate of KMB cost c
// against: ties, gains on both sides of eps, a clear loss, an incumbent of
// 0, against which exactly the acyclic unions screen out, and none.
func roundBests(c float64) []float64 {
	return []float64{c, math.Nextafter(c, math.Inf(1)), c + screenEps, math.Nextafter(c+screenEps, math.Inf(1)), c + 2*screenEps, c - 1, 0, math.Inf(1)}
}

// joinStep returns the Prim step at which net's last node joined in the
// KMB call that last ran on cache, read off its pairs.
func joinStep(cache *graph.SPTCache, net []graph.NodeID) int {
	for i, pr := range cache.Scratch().TreeBuffers().Pairs {
		if int(pr[1]) == len(net)-1 {
			return i + 1
		}
	}
	return -1
}

// TestKMBRoundParity checks KMBRound against KMBScreened, the per-candidate
// evaluation it replaces in IKMB's scan: for every candidate of every
// instance and several incumbents, the tree's edges and cost bits, the
// screened flag and the error class agree. Each round is evaluated on its
// own cache and on a fork, as the scan's workers do, and a round whose
// cache it cannot reproduce — a spanned node without a cached tree, extra
// trees cached on the cache or privately on the fork — must still agree.
// Candidates cover every Prim join position for every spanned size, the
// spanned nodes themselves, out-of-range IDs and unreachable nodes.
func TestKMBRoundParity(t *testing.T) {
	joins := map[[2]int]int{} // (K, step) → candidates joining there
	var screened, built, failed, fellBack int
	r := AcquireKMBRound()
	defer ReleaseKMBRound(r)
	for inst := range roundInstances(t) {
		k := len(inst.spanned)
		for variant, name := range []string{"exact", "uncached", "extra"} {
			cache := inst.newCache()
			for i, v := range inst.spanned {
				if variant != 1 || i != k-1 {
					cache.Tree(v)
				}
			}
			if variant == 2 {
				cache.Tree(inst.cands[len(inst.cands)/2])
			}
			r.Reset(cache, inst.spanned)
			if !r.exact {
				fellBack++
			}
			fork := cache.Fork(graph.NewDijkstraScratch())
			if variant == 2 {
				fork.Tree(inst.cands[len(inst.cands)/3])
			}
			for _, ec := range []*graph.SPTCache{cache, fork} {
				cached := ec.NumCached()
				for _, c := range inst.cands {
					net := append(slices.Clone(inst.spanned), c)
					want, err := KMB(ec, net)
					bests := []float64{0, math.Inf(1)}
					if err == nil {
						bests = roundBests(want.Cost)
						if step := joinStep(ec, net); variant == 0 {
							joins[[2]int{k, step}]++
						}
					}
					for _, best := range bests {
						got, gotScreened, gotErr := r.KMBScreened(ec, net, best, screenEps)
						if r.exact && ec.NumCached() != cached {
							t.Fatalf("%s/%s: candidate %d computed a tree", inst.name, name, c)
						}
						want, wantScreened, wantErr := KMBScreened(ec, net, best, screenEps)
						if !sameOutcome(got, gotScreened, gotErr, want, wantScreened, wantErr) {
							t.Fatalf("%s/%s, spanned %v, candidate %d, best %v:\nround    %v screened %v err %v\nKMBScreened %v screened %v err %v",
								inst.name, name, inst.spanned, c, best, got, gotScreened, gotErr, want, wantScreened, wantErr)
						}
						switch {
						case gotErr != nil:
							failed++
						case gotScreened:
							screened++
						default:
							built++
						}
					}
				}
			}
			fork.Release()
		}
	}
	t.Logf("%d screened, %d built, %d errors; %d rounds fell back", screened, built, failed, fellBack)
	if screened == 0 || built == 0 || failed == 0 || fellBack == 0 {
		t.Fatal("an outcome went untested")
	}
	for k := 1; k <= 8; k++ {
		for s := 1; s <= k; s++ {
			if joins[[2]int{k, s}] == 0 {
				t.Errorf("no candidate joined Prim over %d spanned nodes at step %d", k, s)
			}
		}
	}
}
