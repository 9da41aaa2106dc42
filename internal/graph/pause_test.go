package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// pauseInstance is a random pin grid (see newPinGrid) prepared as the
// router leaves a fabric for one net: most pin taps disabled, so most pin
// tails are skipped, a few core edges disabled too, and on odd seeds every
// weight an integer in {0, 1, 2}, so that equal keys abound and the pop
// order among them is what a search has to keep.
func pauseInstance(seed int64) (*pinGrid, *rand.Rand) {
	p := newPinGrid(seed, true)
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 1 {
		for id := 0; id < p.NumEdges(); id++ {
			p.SetWeight(EdgeID(id), float64(rng.Intn(3)))
		}
	}
	p.openPins(rng, 1+rng.Intn(4))
	for k := rng.Intn(4); k > 0; k-- {
		p.SetEnabled(EdgeID(rng.Intn(p.NumEdges())), false)
	}
	return p, rng
}

// randomNodes returns k distinct-or-not random nodes of g.
func randomNodes(rng *rand.Rand, g *Graph, k int) []NodeID {
	out := make([]NodeID, k)
	for i := range out {
		out[i] = NodeID(rng.Intn(g.NumNodes()))
	}
	return out
}

// randomRadius returns +Inf, 0, or a key the reference search settles
// (so that ties at the radius occur), nudged up or down at random.
func randomRadius(rng *rand.Rand, ref *SPT) float64 {
	switch r := rng.Intn(6); {
	case r == 0:
		return inf
	case r == 1 || len(ref.settled) == 0:
		return 0
	default:
		d := ref.Dist[ref.settled[rng.Intn(len(ref.settled))]]
		switch rng.Intn(3) {
		case 0:
			return d * (1 - 1e-12)
		case 1:
			return d * (1 + 1e-12)
		}
		return d
	}
}

// checkPrefix verifies that got settled exactly the first k nodes ref
// settled, in ref's order, with ref's labels and parents there, and reads
// unreachable everywhere else.
func checkPrefix(t *testing.T, what string, got, ref *SPT, k int) {
	t.Helper()
	if len(got.settled) != k {
		t.Fatalf("%s: settled %d nodes, want the first %d of %d", what, len(got.settled), k, len(ref.settled))
	}
	in := make([]bool, len(ref.Dist))
	for i, v := range got.settled {
		if v != ref.settled[i] {
			t.Fatalf("%s: pop %d settled node %d, uninterrupted search %d", what, i, v, ref.settled[i])
		}
		in[v] = true
	}
	for v := range ref.Dist {
		want := [3]any{inf, None, None}
		if in[v] {
			want = [3]any{ref.Dist[v], ref.ParentEdge[v], ref.ParentNode[v]}
		}
		if have := [3]any{got.Dist[v], got.ParentEdge[v], got.ParentNode[v]}; have != want {
			t.Fatalf("%s: node %d reads %v, want %v", what, v, have, want)
		}
	}
}

// radiusPrefix is how many of ref's settled nodes have keys ≤ radius: ref
// settles in non-decreasing key order.
func radiusPrefix(ref *SPT, radius float64) int {
	k := 0
	for k < len(ref.settled) && ref.Dist[ref.settled[k]] <= radius {
		k++
	}
	return k
}

// TestPauseResumeParity: a plain search paused at a random pause set and
// resumed under a random radius, on another scratch whose epoch has moved
// on, settles exactly a prefix of the uninterrupted search's pops: the
// longer of the paused prefix and the prefix of keys ≤ the radius, with
// the uninterrupted labels and parents there and +Inf elsewhere. When the
// radius reaches past the pause, the tree and the heap pushes are those of
// one search run under the radius from the start. The pause itself leaves
// a prefix that covers the pause set, and the resume opens no new run.
// Integer-weight grids make key ties common, and the instances carry
// disabled edges and skipped pin tails.
func TestPauseResumeParity(t *testing.T) {
	var paused, before, beyond int
	for seed := int64(0); seed < 300; seed++ {
		p, rng := pauseInstance(seed)
		g := p.Graph
		src := NodeID(rng.Intn(g.NumNodes()))
		var stop []NodeID
		if rng.Intn(3) > 0 {
			stop = randomNodes(rng, g, 1+rng.Intn(g.NumNodes()))
		}
		pause := randomNodes(rng, g, rng.Intn(6))
		if len(pause) > 1 && rng.Intn(2) == 0 {
			pause = append(pause, pause[0]) // counted once
		}
		ref := g.dijkstraInto(NewDijkstraScratch(), new(SPT), src, stop, nil, inf)
		radius := randomRadius(rng, ref)
		what := func(step string) string { return fmt.Sprintf("seed %d, %s", seed, step) }

		sa, sb := NewDijkstraScratch(), NewDijkstraScratch()
		if seed%3 == 0 {
			// Leave pause marks of another set at epoch 1, then wrap the
			// epoch so that the pausing run below comes round to 1 again.
			sa.RecycleSPT(g.dijkstraInto(sa, new(SPT), src, nil, randomNodes(rng, g, 3), inf))
			sa.ep = ^uint32(0)
		}
		runsA, pushesA, settledA := sa.Runs, sa.HeapPushes, sa.Settled
		pt := g.dijkstraInto(sa, new(SPT), src, stop, pause, inf)
		if !pt.paused {
			// The search ended before settling its pause set, or just as
			// it settled the last one: it is the uninterrupted search.
			if at := pausePoint(ref, pause); at >= 0 && at+1 < len(ref.settled) {
				t.Fatalf("%s: settled its pause set at pop %d of %d but did not pause", what("unpaused"), at, len(ref.settled))
			}
			checkPrefix(t, what("unpaused"), pt, ref, len(ref.settled))
			continue
		}
		paused++
		checkPaused(t, what("paused"), pt, ref, pause)
		// Move sb's epoch on, leaving stale marks from an unrelated search.
		sb.RecycleSPT(g.dijkstraInto(sb, new(SPT), NodeID(rng.Intn(g.NumNodes())), nil, nil, inf))
		runs, pushes, settled := sb.Runs, sb.HeapPushes, sb.Settled
		k := len(pt.settled)
		got := g.resume(sb, pt, stop, radius)
		checkPrefix(t, what("resumed"), got, ref, max(k, radiusPrefix(ref, radius)))
		if sa.Runs-runsA != 1 || sb.Runs != runs {
			t.Fatalf("%s: %d runs to pause, %d to resume; want 1 and 0", what("resumed"), sa.Runs-runsA, sb.Runs-runs)
		}
		if got.paused || !got.tidy {
			t.Fatalf("%s: resumed tree paused %v, finished %v", what("resumed"), got.paused, got.tidy)
		}
		if radiusPrefix(ref, radius) < k {
			before++
			if sb.HeapPushes != pushes {
				t.Fatalf("%s: the radius lies before the pause, yet the resume pushed %d", what("resumed"), sb.HeapPushes-pushes)
			}
			continue
		}
		beyond++
		bs := NewDijkstraScratch()
		want := g.dijkstraInto(bs, new(SPT), src, stop, nil, radius)
		if !sptEqual(got, want) || !slices.Equal(got.settled, want.settled) {
			t.Fatalf("%s: resumed tree differs from the search bounded from the start", what("resumed"))
		}
		n, m := sa.HeapPushes-pushesA+sb.HeapPushes-pushes, sa.Settled-settledA+sb.Settled-settled
		if n != bs.HeapPushes || m != bs.Settled {
			t.Fatalf("%s: %d heap pushes and %d settles paused and resumed, %d and %d bounded from the start", what("resumed"), n, m, bs.HeapPushes, bs.Settled)
		}
	}
	t.Logf("%d searches paused; %d resumed under a radius before the pause, %d past it", paused, before, beyond)
	if before == 0 || beyond == 0 {
		t.Fatal("a resume case never came up")
	}
}

// pausePoint returns the index in ref's settled order at which every node of
// pause has settled, or -1 if ref never settles one of them.
func pausePoint(ref *SPT, pause []NodeID) int {
	at := -1
	for _, v := range pause {
		i := slices.Index(ref.settled, v)
		if i < 0 {
			return -1
		}
		at = max(at, i)
	}
	return at
}

// checkPaused verifies a paused tree: its settled nodes are a prefix of the
// uninterrupted search's that holds every pause-set node and ends at one,
// with the same labels there.
func checkPaused(t *testing.T, what string, got, ref *SPT, pause []NodeID) {
	t.Helper()
	if len(got.settled) > len(ref.settled) {
		t.Fatalf("%s: settled %d nodes, more than the uninterrupted %d", what, len(got.settled), len(ref.settled))
	}
	in := make(map[NodeID]bool, len(got.settled))
	for i, v := range got.settled {
		if v != ref.settled[i] {
			t.Fatalf("%s: pop %d settled node %d, uninterrupted search %d", what, i, v, ref.settled[i])
		}
		if got.Dist[v] != ref.Dist[v] || got.ParentEdge[v] != ref.ParentEdge[v] || got.ParentNode[v] != ref.ParentNode[v] {
			t.Fatalf("%s: settled node %d labelled differently", what, v)
		}
		in[v] = true
	}
	for _, v := range pause {
		if !in[v] {
			t.Fatalf("%s: paused before settling pause node %d", what, v)
		}
	}
	if k := len(got.settled); len(pause) > 0 && (k == 0 || !slices.Contains(pause, got.settled[k-1])) {
		t.Fatalf("%s: paused %d pops after the pause set was settled", what, k)
	}
}

// serialRun is the run function of Warm and Resume on one scratch, inline.
func serialRun(s *DijkstraScratch) func(int, func(int, *DijkstraScratch)) {
	return func(n int, fill func(int, *DijkstraScratch)) {
		for i := range n {
			fill(i, s)
		}
	}
}

// fannedRun is the run function of Warm and Resume on one goroutine per
// scratch, pulling tree indices off a shared cursor, as the scanner does.
func fannedRun(scratches []*DijkstraScratch) func(int, func(int, *DijkstraScratch)) {
	return func(n int, fill func(int, *DijkstraScratch)) {
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
	}
}

// TestWarmPausedResumeParity drives the cache's side of the contract as
// IKMB does: WarmPaused over a net's terminals, SetRadius, Resume. Warming
// and resuming fanned out over three goroutines leave every tree equal to
// warming and resuming inline, labels, parents and settled order alike,
// with the same summed heap pushes and no run beyond one per tree; each
// tree is a prefix of its uninterrupted search as TestPauseResumeParity
// describes. Raising the radius back to +Inf drops exactly the trees it
// cut short, and the searches that replace them are the unbounded ones.
func TestWarmPausedResumeParity(t *testing.T) {
	var paused, cutShort int
	for seed := int64(0); seed < 120; seed++ {
		p, rng := pauseInstance(seed)
		g := p.Graph
		terms := randomNodes(rng, g, 2+rng.Intn(5))
		var stop []NodeID
		if rng.Intn(4) > 0 {
			stop = append(randomNodes(rng, g, rng.Intn(g.NumNodes())), terms...)
		}
		build := func(s *DijkstraScratch) *SPTCache {
			if stop == nil {
				return NewSPTCache(g).WithScratch(s)
			}
			return NewSPTCacheWithin(g, stop).WithScratch(s)
		}
		serial, fanned := build(NewDijkstraScratch()), build(NewDijkstraScratch())
		workers := []*DijkstraScratch{NewDijkstraScratch(), NewDijkstraScratch(), NewDijkstraScratch()}
		serial.WarmPaused(terms, serialRun(serial.Scratch()))
		fanned.WarmPaused(terms, fannedRun(workers))
		for _, v := range terms {
			if tr, ok := serial.CachedTree(v); ok && tr.paused {
				paused++
			}
		}
		ref := build(NewDijkstraScratch())
		var radius float64
		switch rng.Intn(3) {
		case 0:
			radius = inf
		case 1: // past every pause, as IKMB's radius is
			for _, v := range terms {
				for _, u := range terms {
					if d := ref.Tree(u).Dist[v]; d < inf {
						radius = max(radius, d)
					}
				}
			}
		default:
			radius = randomRadius(rng, ref.Tree(terms[0]))
		}
		serial.SetRadius(radius)
		fanned.SetRadius(radius)
		serial.Resume(terms, serialRun(serial.Scratch()))
		fanned.Resume(terms, fannedRun(workers))
		// A fork searches under its base's radius.
		x := NodeID(rng.Intn(g.NumNodes()))
		bs := NewDijkstraScratch()
		if _, ok := serial.CachedTree(x); !ok {
			ft := serial.Fork(bs).Tree(x)
			want := g.dijkstraInto(NewDijkstraScratch(), new(SPT), x, stop, nil, radius)
			if !sptEqual(ft, want) || !slices.Equal(ft.settled, want.settled) {
				t.Fatalf("seed %d: a fork's tree at %d ignores its base's radius", seed, x)
			}
		}
		var pushes, runs int64
		for _, s := range workers {
			pushes += s.HeapPushes
			runs += s.Runs
		}
		if fanned.Scratch().Runs != 0 || runs != serial.Scratch().Runs || pushes != serial.Scratch().HeapPushes {
			t.Fatalf("seed %d: fanned out %d runs (%d on the cache's scratch), %d pushes; inline %d runs, %d pushes",
				seed, runs, fanned.Scratch().Runs, pushes, serial.Scratch().Runs, serial.Scratch().HeapPushes)
		}
		if int(runs) != serial.NumCached() || serial.NumCached() != fanned.NumCached() {
			t.Fatalf("seed %d: %d runs for %d and %d cached trees", seed, runs, serial.NumCached(), fanned.NumCached())
		}
		var cut []NodeID
		for _, v := range terms {
			a, _ := serial.CachedTree(v)
			b, _ := fanned.CachedTree(v)
			if !sptEqual(a, b) || !slices.Equal(a.settled, b.settled) || a.paused || b.paused || a.radius != b.radius {
				t.Fatalf("seed %d: tree at %d differs between the inline and the fanned-out resume", seed, v)
			}
			full := ref.Tree(v)
			if k := len(a.settled); k < radiusPrefix(full, radius) || !slices.Equal(a.settled, full.settled[:k]) {
				t.Fatalf("seed %d: tree at %d settled %d nodes, not a prefix of %d reaching the radius", seed, v, k, len(full.settled))
			}
			checkPrefix(t, fmt.Sprintf("seed %d, tree at %d", seed, v), a, full, len(a.settled))
			if a.radius < inf && !slices.Contains(cut, v) {
				cut = append(cut, v)
			}
		}
		cutShort += len(cut)
		kept := serial.NumCached() - len(cut)
		serial.SetRadius(inf)
		if serial.NumCached() != kept {
			t.Fatalf("seed %d: raising the radius kept %d trees, want the %d it did not cut short", seed, serial.NumCached(), kept)
		}
		for _, v := range terms {
			if !sptEqual(serial.Tree(v), ref.Tree(v)) {
				t.Fatalf("seed %d: tree at %d after raising the radius differs from the unbounded one", seed, v)
			}
		}
		if got := serial.Runs; got != int(runs)+len(cut) {
			t.Fatalf("seed %d: %d runs, want %d warmed and %d redone", seed, got, runs, len(cut))
		}
	}
	t.Logf("%d trees paused, %d cut short by the radius", paused, cutShort)
	if paused == 0 || cutShort == 0 {
		t.Fatal("no tree paused, or none was cut short")
	}
}
