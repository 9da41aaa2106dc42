package steiner

import "fpgarouter/internal/graph"

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
	if err := CheckNet(cache, net); err != nil {
		return graph.Tree{}, err
	}
	if len(net) == 1 {
		return graph.Tree{Edges: []graph.EdgeID{}}, nil
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
		return graph.Tree{}, err
	}
	// Paths overlap; localMST deduplicates, and neither the order nor the
	// repeats reach its result, which depends only on the edge set.
	paths := b.Paths[:0]
	for _, pr := range pairs {
		paths = cache.AppendPath(paths, net[pr[0]], net[pr[1]])
	}
	b.Paths = paths
	// Step 3: MST over the expanded subgraph, then prune pendant
	// non-terminals.
	mst := localMST(cache, paths)
	return graph.PruneTree(cache.Graph(), cache.Scratch(), mst, net), nil
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
