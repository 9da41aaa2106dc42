package steiner

import (
	"math"

	"fpgarouter/internal/graph"
)

// KMB is the graph Steiner tree heuristic of Kou, Markowsky and Berman
// (Acta Informatica 1981), as described in the paper's Appendix 8.1:
//
//  1. build the complete distance graph G' over the net,
//  2. compute MST(G') and expand each MST edge into its shortest path in G,
//     yielding subgraph G”,
//  3. compute MST(G”) and delete pendant edges until all leaves are pins.
//
// Performance ratio: 2·(1−1/L) where L is the maximum number of leaves in
// any optimal solution.
func KMB(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	// Against an infinite incumbent no candidate can be ruled out, so the
	// shared body always builds the tree.
	t, _, err := kmb(cache, net, graph.Inf(), 0)
	return t, err
}

// KMBScreened is KMB for a Steiner-candidate scan that only needs trees
// able to improve on an incumbent of cost best. It runs KMB's steps 1–2
// (the same CheckNet, distance-graph Prim and path expansion, hence the
// same cache reads, searches and errors) and then either returns KMB's
// exact tree with screened false, or returns screened true and no tree
// when KMB's cost c certainly satisfies fl(best − c) ≤ eps, whatever
// the order in which c's terms are summed. A screened-out call skips
// step 3 and allocates nothing.
//
// The screen engages only when the expanded shortest paths, deduplicated,
// already form a tree (m distinct edges over m+1 distinct nodes; their
// union is connected because every path joins two terminals). Step 3 then
// keeps every edge: Kruskal drops none, and every leaf of a union of
// terminal-to-terminal paths is a path endpoint, hence a terminal, so the
// prune removes none. c is therefore a naive sum of the same m base
// weights that the dedup pass sums in first-occurrence order, and
// screenBound turns that sum into a lower bound on c. fl(best − x) does
// not increase with x, so a bound that fails best − L > eps proves c
// fails it too. A union with a cycle, or a sum the bound does not cover,
// builds the tree.
func KMBScreened(cache *graph.SPTCache, net []graph.NodeID, best, eps float64) (t graph.Tree, screened bool, err error) {
	return kmb(cache, net, best, eps)
}

// kmb is the one body behind KMB and KMBScreened.
func kmb(cache *graph.SPTCache, net []graph.NodeID, best, eps float64) (graph.Tree, bool, error) {
	if err := CheckNet(cache, net); err != nil {
		return graph.Tree{}, false, err
	}
	if len(net) == 1 {
		return graph.Tree{Edges: []graph.EdgeID{}}, false, nil
	}
	// Step 1+2: MST of the (implicit) complete distance graph over the
	// net, computed matrix-free over cached shortest-path distances, then
	// each MST edge expanded into its shortest path. This function is
	// evaluated once per Steiner candidate inside IKMB, so every working
	// slice comes from the cache's scratch (graph.TreeBuffers) and the
	// pruned tree's edge slice is the only allocation on a warm cache.
	b := cache.Scratch().TreeBuffers()
	pairs, err := distanceMSTPairs(cache, b, net)
	if err != nil {
		return graph.Tree{}, false, err
	}
	// Paths overlap; unionKeys deduplicates, and neither the order nor the
	// repeats reach the MST, which depends only on the edge set.
	paths := b.Paths[:0]
	for _, pr := range pairs {
		paths = cache.AppendPath(paths, net[pr[0]], net[pr[1]])
	}
	b.Paths = paths
	// The screen (see KMBScreened): an acyclic union is already KMB's tree,
	// and its cost cannot fall below screenBound(sum, m).
	keys, nodes, sum := unionKeys(cache, paths)
	if m := len(keys); m == nodes.Len()-1 && best-screenBound(sum, m) <= eps {
		return graph.Tree{}, true, nil
	}
	// Step 3: MST over the expanded subgraph, then prune pendant
	// non-terminals.
	mst := kruskal(cache, keys, nodes)
	return graph.PruneTree(cache.Graph(), cache.Scratch(), mst, net), false, nil
}

// screenBound returns a lower bound on every naive floating-point sum of m
// non-negative terms whose naive sum in one order is s, or -Inf when it
// has none to offer (m ≥ 2²⁰, or s not finite). Two naive sums of the same
// terms differ by at most 2·γ(m−1)·S ≈ 2(m−1)·2⁻⁵³·S, S being their exact
// sum; the factor 1 − m·2⁻⁵⁰ is exact for m < 2²⁰, and its product with s
// rounds once, so the margin m·2⁻⁵⁰·s covers both sums' errors and that
// rounding about 3× over. A subnormal s is exact (sums there do not
// round), and s·(1 − …) never exceeds it.
func screenBound(s float64, m int) float64 {
	if m >= 1<<20 || s > math.MaxFloat64 {
		return math.Inf(-1)
	}
	return s * (1 - float64(m)*0x1p-50)
}

// distanceMSTPairs runs Prim over the implicit complete distance graph on
// net and returns the chosen (i, j) index pairs in join order, in b.Pairs.
// Ties break toward the earlier-reached node, deterministically.
func distanceMSTPairs(cache *graph.SPTCache, b *graph.TreeBuffers, net []graph.NodeID) ([][2]int32, error) {
	k := len(net)
	inTree := grow(&b.PrimDone, k)
	best := grow(&b.PrimKey, k)
	bestFrom := grow(&b.PrimFrom, k)
	for i := range best {
		inTree[i] = false
		best[i] = graph.Inf()
		bestFrom[i] = -1
	}
	best[0] = 0
	pairs := b.Pairs[:0]
	for iter := 0; iter < k; iter++ {
		u := -1
		for v := 0; v < k; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		if best[u] == graph.Inf() {
			return nil, ErrNoRoute
		}
		inTree[u] = true
		if bestFrom[u] >= 0 {
			pairs = append(pairs, [2]int32{bestFrom[u], int32(u)})
		}
		// Hoist the cache's per-call root lookup out of the inner loop: once
		// u's tree exists, read its Dist slice directly. When it doesn't,
		// fall through to Dist (which prefers whichever endpoint is cached —
		// the fold-order of the sum matters for bit-reproducibility) and
		// re-check, since that call may have computed and cached u's tree.
		tu, uok := cache.CachedTree(net[u])
		for v := 0; v < k; v++ {
			if inTree[v] {
				continue
			}
			var d float64
			if uok {
				d = tu.Dist[net[v]]
			} else {
				d = cache.Dist(net[u], net[v])
				tu, uok = cache.CachedTree(net[u])
			}
			if d < best[v] {
				best[v] = d
				bestFrom[v] = int32(u)
			}
		}
	}
	b.Pairs = pairs
	return pairs, nil
}
