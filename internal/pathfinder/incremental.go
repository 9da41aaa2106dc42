package pathfinder

import (
	"slices"

	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
)

// This file is the incremental rip-up-and-reroute machinery: partial tree
// reuse (reconnect), delta usage accounting (reduceDelta) and delta
// repricing (repriceDelta). The parity suite recomputes the usage and
// price state from scratch after every iteration and asserts the delta
// bookkeeping reproduces it bit for bit.
//
// Invariants the delta bookkeeping (the engine's resActive … havePres
// fields) maintains:
//
//   - usage[r] equals the full recount over all trees: reduceDelta applies
//     −1 for each distinct resource of a rerouted net's old tree and +1
//     for its new tree (resources in both cancel), and nets whose tree did
//     not change contribute exactly their old count.
//   - A resource is "active" from the first moment any tree uses it, and
//     stays active forever (history prices never decay). Inactive
//     resources provably have hist = usage = 0, so their edges' shared
//     price is 0 without ever being written.
//   - activeEdges is the ascending-edge-ID list of all active resources'
//     edges; filtering it by price ≠ 0 yields exactly the edges whose
//     price is non-zero (any such edge belongs to a resource with
//     hist > 0 or usage > 0, which is active).
//   - touched marks resources whose usage or history changed since the
//     last reprice; when the present factor is unchanged, only their edges
//     need rewriting. A present-factor change rewrites every active
//     resource (the presFac·usage term moved everywhere usage > 0, and
//     rewriting the rest is harmless).

// debugHooks exposes the engine to in-package tests at the two points
// where the delta bookkeeping must agree with a from-scratch rebuild.
// Production configs leave it nil.
type debugHooks struct {
	afterReprice func(e *engine, iter int, presFac float64)
	afterReduce  func(e *engine, iter int)
}

// touchRes marks r's usage or history as changed since the last reprice.
func (e *engine) touchRes(r int32) {
	if !e.touchedMark[r] {
		e.touchedMark[r] = true
		e.touched = append(e.touched, r)
	}
}

// activateRes brings r into the priced universe the first time a tree
// uses it, queueing its edges for the sorted activeEdges merge.
func (e *engine) activateRes(r int32) {
	if !e.resActive[r] {
		e.resActive[r] = true
		e.activeRes = append(e.activeRes, r)
		e.newActive = append(e.newActive, e.resEdges(r)...)
	}
}

// repriceDelta freezes this iteration's shared per-edge price array,
// hist[res] + presFac·usage[res], and the priced edge list (ascending edge
// ID, every edge with a non-zero price) that workers perturb and restore
// per net. Instead of recomputing every edge's price, it rewrites only the
// edges of touched resources (or of all active resources when the present
// factor moved) and rebuilds the priced list by filtering the sorted
// active-edge index.
func (e *engine) repriceDelta(presFac float64) {
	if len(e.newActive) > 0 {
		slices.Sort(e.newActive)
		merged := e.mergeBuf[:0]
		a, b := e.activeEdges, e.newActive
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] < b[j] {
				merged = append(merged, a[i])
				i++
			} else {
				merged = append(merged, b[j])
				j++
			}
		}
		merged = append(merged, a[i:]...)
		merged = append(merged, b[j:]...)
		e.activeEdges, e.mergeBuf = merged, a[:0]
		e.newActive = e.newActive[:0]
	}
	if !e.havePres || presFac != e.lastPres {
		for _, r := range e.activeRes {
			p := e.hist[r] + presFac*float64(e.usage[r])
			for _, id := range e.resEdges(r) {
				e.sharedPrice[id] = p
			}
		}
	} else {
		for _, r := range e.touched {
			p := e.hist[r] + presFac*float64(e.usage[r])
			for _, id := range e.resEdges(r) {
				e.sharedPrice[id] = p
			}
		}
	}
	e.lastPres, e.havePres = presFac, true
	for _, r := range e.touched {
		e.touchedMark[r] = false
	}
	e.touched = e.touched[:0]
	e.priced = e.priced[:0]
	for _, id := range e.activeEdges {
		if e.sharedPrice[id] != 0 {
			e.priced = append(e.priced, id)
		}
	}
}

// reduceDelta updates per-resource usage and applies the sub-gradient
// step hist[r] += histStep·(usage[r]−1) on every overcapacity resource.
// Usage moves only by the rerouted nets' old-tree/new-tree deltas
// (usageLive skips even that — the Gauss-Seidel pass already adjusted
// usage net by net); counts are integers, so the result is independent of
// which worker routed which net. The overflow count, history update and
// HistSum sweep walk every resource — O(resources) and cheap.
func (e *engine) reduceDelta(list []int32, usageLive bool) (overflow, priceUpdates int, histSum float64) {
	var walked int64
	if !usageLive {
		for i, i32 := range list {
			idx := int(i32)
			old := e.prevSnap[i]
			e.ep++
			for _, id := range old.Edges {
				r := e.edgeRes[id]
				if e.resEp[r] == e.ep {
					continue
				}
				e.resEp[r] = e.ep
				e.usage[r]--
				e.touchRes(r)
			}
			e.ep++
			for _, id := range e.trees[idx].Edges {
				r := e.edgeRes[id]
				if e.resEp[r] == e.ep {
					continue
				}
				e.resEp[r] = e.ep
				e.usage[r]++
				e.touchRes(r)
				e.activateRes(r)
			}
			walked += int64(len(old.Edges) + len(e.trees[idx].Edges))
			e.prevSnap[i] = graph.Tree{}
		}
	}
	// Delta-reduce savings: the full recount walks every tree's edges; the
	// delta walked only the rerouted nets' old and new trees.
	var total int64
	for i := range e.trees {
		total += int64(len(e.trees[i].Edges))
	}
	if saved := total - walked; saved > 0 {
		e.cfg.Stats.Record(func(s *stats.Snapshot) { s.ReduceEdgesSkipped += saved })
	}
	for r, u := range e.usage {
		if u > 1 {
			overflow++
			e.hist[r] += histStep * float64(u-1)
			priceUpdates++
			e.touchRes(int32(r))
		}
	}
	for _, h := range e.hist {
		histSum += h
	}
	return overflow, priceUpdates, histSum
}

// reconnect is the partial rip-up: keep the edges of the net's previous
// tree whose resources are not overflowed, retain the connected fragment
// containing the source terminal (kept edges cut off from it are ripped
// too — a detached fragment no longer routes anything), and reattach each
// orphaned terminal by a goal-directed multi-source search seeded from the
// whole fragment at distance zero. The searches run under the worker's
// overlay after the own-share discount and jitter were applied, so
// reconnection paths are priced by exactly the same effective-weight
// formula as a full reroute. Pendant non-terminal stubs left where cuts
// happened are pruned at the end.
//
// The decision of what to rip depends only on the frozen usage array and
// the net's own previous tree, and the searches only on the overlay and
// net identity — never on scheduling — so the determinism contract holds.
//
// Returns done=false when partial reuse is impossible or useless (no
// previous tree, every edge overflowed, the source's fragment is empty, or
// an orphan is unreachable from the fragment): the caller falls back to
// the full construction.
func (e *engine) reconnect(wk *worker, idx int, terms []graph.NodeID) (graph.Tree, bool) {
	prev := e.trees[idx]
	if len(prev.Edges) == 0 || len(terms) < 2 {
		return graph.Tree{}, false
	}
	kept := wk.kept[:0]
	for _, id := range prev.Edges {
		if e.usage[e.edgeRes[id]] <= 1 {
			kept = append(kept, id)
		}
	}
	wk.kept = kept
	if len(kept) == 0 {
		return graph.Tree{}, false
	}
	// Connected components of the kept edges: dense-slot the endpoints and
	// union-find over a worker-local grow-only parent array.
	ns := wk.scratch.NodeSet(e.g.NumNodes())
	parent := wk.parent[:0]
	slot := func(v graph.NodeID) int32 {
		s := ns.Slot(v)
		for int(s) >= len(parent) {
			parent = append(parent, int32(len(parent)))
		}
		return s
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, id := range kept {
		ed := e.g.Edge(id)
		ra, rb := find(slot(ed.U)), find(slot(ed.V))
		if ra != rb {
			parent[rb] = ra
		}
	}
	wk.parent = parent
	src := terms[0]
	if !ns.Has(src) {
		// No kept edge touches the source: the retained fragment is the bare
		// source node and reconnection would degenerate to a full reroute
		// with a worse construction. Let the full path handle it.
		return graph.Tree{}, false
	}
	root := find(slot(src))
	// Collect the source's fragment: its edges become the tree skeleton,
	// its nodes the zero-distance seed set. seen marks fragment membership.
	if len(wk.seen) < e.g.NumNodes() {
		wk.seen = make([]uint32, e.g.NumNodes())
		wk.seenEp = 0
	}
	wk.seenEp++
	if wk.seenEp == 0 {
		clear(wk.seen)
		wk.seenEp = 1
	}
	seeds := wk.seeds[:0]
	out := wk.out[:0]
	retained := 0
	addSeed := func(v graph.NodeID) {
		if wk.seen[v] != wk.seenEp {
			wk.seen[v] = wk.seenEp
			seeds = append(seeds, graph.Seed{Node: v})
		}
	}
	for _, id := range kept {
		ed := e.g.Edge(id)
		if find(slot(ed.U)) != root {
			continue
		}
		out = append(out, id)
		retained++
		addSeed(ed.U)
		addSeed(ed.V)
	}
	addSeed(src)
	orphans := wk.orphans[:0]
	for _, tn := range terms {
		if wk.seen[tn] == wk.seenEp {
			continue
		}
		dup := false
		for _, o := range orphans {
			if o == tn {
				dup = true
				break
			}
		}
		if !dup {
			orphans = append(orphans, tn)
		}
	}
	b := e.fab.Bounds()
	for len(orphans) > 0 {
		goal, spt := e.g.AStarFromAnyOverlay(wk.scratch, seeds, orphans, wk.ov, b.ToSet(orphans))
		if goal == graph.None {
			wk.scratch.RecycleSPT(spt)
			wk.seeds, wk.orphans, wk.out = seeds, orphans, out
			return graph.Tree{}, false
		}
		// Walk the path back to the fragment, adding its edges to the tree
		// and its nodes to the seed set for the remaining orphans.
		for v := goal; spt.ParentEdge[v] != graph.None; v = spt.ParentNode[v] {
			out = append(out, spt.ParentEdge[v])
			wk.seen[v] = wk.seenEp
			seeds = append(seeds, graph.Seed{Node: v})
		}
		wk.scratch.RecycleSPT(spt)
		for i, o := range orphans {
			if o == goal {
				orphans = append(orphans[:i], orphans[i+1:]...)
				break
			}
		}
	}
	wk.seeds, wk.orphans, wk.out = seeds, orphans, out
	wk.increroutes++
	wk.retained += int64(retained)
	wk.ripped += int64(len(prev.Edges) - retained)
	return graph.PruneTree(e.g, wk.scratch, out, terms), true
}
