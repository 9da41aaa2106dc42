package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// screenCase is one net to construct with and without the screen: newCache
// returns a fresh per-net cache (every call the same state), as the router
// and the pathfinder build one per net.
type screenCase struct {
	name     string
	net      []graph.NodeID
	pool     []graph.NodeID
	newCache func() *graph.SPTCache
}

// screenCases returns random weighted grids (integer weights in {1, 2, 3}
// and in {0, 1}, whose ties produce cyclic path unions) and every net of
// more than two pins of the router's tiny test circuits, through a plain
// and an overlay-priced, goal-directed cache like the pathfinder's. The
// fabric cases call BeginNet, so run each case before building the next.
func screenCases(t *testing.T) func(yield func(screenCase) bool) {
	return func(yield func(screenCase) bool) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 6; i++ {
			grid := graph.NewGrid(10, 10, 1)
			g := grid.Graph
			for id := 0; id < g.NumEdges(); id++ {
				if i%2 == 0 {
					g.SetWeight(graph.EdgeID(id), float64(1+rng.Intn(3)))
				} else {
					g.SetWeight(graph.EdgeID(id), float64(rng.Intn(2)))
				}
			}
			net := graph.RandomNet(rng, g, 4+rng.Intn(5))
			if !yield(screenCase{fmt.Sprintf("grid%d", i), net, nil, func() *graph.SPTCache { return graph.NewSPTCache(g) }}) {
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
				name := fmt.Sprintf("%v/net%d", series, n.ID)
				if !yield(screenCase{name, net, pool, func() *graph.SPTCache { return graph.NewSPTCacheWithin(g, stop) }}) {
					return
				}
				priced := func() *graph.SPTCache {
					return graph.NewSPTCacheWithin(g, stop).WithBounds(fab.Bounds()).WithOverlay(ov)
				}
				if !yield(screenCase{name + "/priced", net, pool, priced}) {
					return
				}
			}
		}
	}
}

// constructStats is a construction's Stats with the wall-clock fields
// cleared, plus the SSSP work on the caller's cache scratch.
type constructStats struct {
	Stats
	Runs, Pushes int64
}

func construct(t *testing.T, c screenCase, build func(*graph.SPTCache, []graph.NodeID, Options) (graph.Tree, Stats, error), opts Options) (graph.Tree, constructStats) {
	t.Helper()
	cache := c.newCache().WithScratch(graph.NewDijkstraScratch())
	defer cache.Release()
	opts.Candidates = c.pool
	tree, st, err := build(cache, c.net, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	st.ScanWall, st.ScanCPU = 0, 0
	return tree, constructStats{st, cache.Scratch().Runs, cache.Scratch().HeapPushes}
}

func oracle(cache *graph.SPTCache, net []graph.NodeID, opts Options) (graph.Tree, Stats, error) {
	return IGMSTStats(cache, net, steiner.KMB, opts)
}

// TestIKMBScreenParity pins IKMBStats' identity contract against the
// unscreened oracle IGMSTStats(…, steiner.KMB, …), at Workers 1, 2 and 4,
// in batched and single-step admission, on random grids and on every
// multi-pin net of the router's tiny circuits, plain and overlay-priced:
// the same tree bit for bit; the same Stats apart from Screened, itself the
// same at every worker count; the same SSSP runs, on the caller's scratch
// and on the workers'. Heap pushes are the oracle's on priced caches and
// at most the oracle's on plain ones, whose searches stop at the
// incumbent's radius. The screen and the radius must each engage
// somewhere, and so must the screen of the batched re-admissions.
func TestIKMBScreenParity(t *testing.T) {
	var screened, bounded, readmits int64
	for c := range screenCases(t) {
		priced := c.newCache().Overlay() != nil
		readmits += screenedReadmissions(t, c)
		for _, batched := range []bool{false, true} {
			var serial int64
			for _, workers := range []int{1, 2, 4} {
				opts := Options{Batched: batched, Workers: workers}
				wantTree, want := construct(t, c, oracle, opts)
				tree, got := construct(t, c, IKMBStats, opts)
				if !reflect.DeepEqual(tree, wantTree) {
					t.Fatalf("%s %+v: tree diverges from the oracle:\n got %+v\nwant %+v", c.name, opts, tree, wantTree)
				}
				if got.Screened < 0 || got.Screened > got.Evaluations {
					t.Fatalf("%s %+v: %d screened of %d evaluations", c.name, opts, got.Screened, got.Evaluations)
				}
				if workers == 1 {
					serial = got.Screened
					screened += serial
				} else if got.Screened != serial {
					t.Fatalf("%s %+v: %d screened, %d at one worker", c.name, opts, got.Screened, serial)
				}
				got.Screened = 0
				pushes, wantPushes := got.Pushes+got.WorkerHeapPushes, want.Pushes+want.WorkerHeapPushes
				if priced {
					if got != want {
						t.Fatalf("%s %+v: stats %+v, oracle %+v", c.name, opts, got, want)
					}
					continue
				}
				if pushes > wantPushes {
					t.Fatalf("%s %+v: %d heap pushes, oracle %d", c.name, opts, pushes, wantPushes)
				}
				if workers == 1 && pushes < wantPushes {
					bounded++
				}
				got.Pushes, got.WorkerHeapPushes, want.Pushes, want.WorkerHeapPushes = 0, 0, 0, 0
				if got != want {
					t.Fatalf("%s %+v: stats %+v, oracle %+v", c.name, opts, got, want)
				}
			}
		}
	}
	t.Logf("%d evaluations screened out, %d of them batched re-admissions; the radius saved heap pushes in %d constructions", screened, readmits, bounded)
	if screened == 0 {
		t.Fatal("the screen never engaged")
	}
	if bounded == 0 {
		t.Fatal("the radius never engaged")
	}
	if readmits == 0 {
		t.Fatal("the screen never ruled out a batched re-admission")
	}
}

// screenedReadmissions builds c as IKMBStats does, batched at one worker,
// and returns how many batched re-admissions its screen ruled out.
func screenedReadmissions(t *testing.T, c screenCase) int64 {
	var n int64
	screen := func(cache *graph.SPTCache, net []graph.NodeID, best, eps float64) (graph.Tree, bool, error) {
		tr, out, err := steiner.KMBScreened(cache, net, best, eps)
		if out {
			n++
		}
		return tr, out, err
	}
	build := func(cache *graph.SPTCache, net []graph.NodeID, opts Options) (graph.Tree, Stats, error) {
		return iterate(cache, net, steiner.KMB, screen, opts, true)
	}
	construct(t, c, build, Options{Batched: true, Workers: 1})
	return n
}
