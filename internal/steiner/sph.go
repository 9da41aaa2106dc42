package steiner

import "fpgarouter/internal/graph"

// SPH is the shortest-paths heuristic of Takahashi and Matsuyama (1980),
// the other classical 2-approximation for the graph Steiner tree problem:
// starting from the source, repeatedly connect the terminal nearest to the
// tree built so far by a shortest path. Like KMB its performance ratio is
// 2·(1−1/L); in practice the two differ instance by instance, which makes
// SPH a useful additional base heuristic for the paper's iterated template
// (core.ISPH) and a sanity cross-check for KMB.
func SPH(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	if err := CheckNet(cache, net); err != nil {
		return graph.Tree{}, err
	}
	if len(net) == 1 {
		return graph.Tree{Edges: []graph.EdgeID{}}, nil
	}
	g := cache.Graph()

	// Nodes currently in the tree (starts as just the source), kept as an
	// insertion-ordered slice: scanning it in that fixed order makes the
	// tie-break between equally near attachment points deterministic (a
	// map-keyed set would leave it to map iteration order) and reuses the
	// cache's pooled sets instead of allocating per call.
	inTree := cache.NodeSet()
	treeNodes := make([]graph.NodeID, 1, 2*len(net))
	treeNodes[0] = net[0]
	inTree.Add(net[0])
	connected := make([]bool, len(net))
	connected[0] = true
	var edges []graph.EdgeID
	edgeSet := cache.EdgeSet()

	for remaining := len(net) - 1; remaining > 0; remaining-- {
		// Find the unconnected terminal with the cheapest shortest path to
		// any tree node. Distances are read off the terminal's own SPT
		// (one Dijkstra per terminal over the whole construction), since
		// dist(treeNode, term) = dist(term, treeNode).
		bestTerm := -1
		bestNode := graph.None
		bestD := graph.Inf()
		for i, term := range net {
			if connected[i] {
				continue
			}
			tt := cache.Tree(term)
			for _, v := range treeNodes {
				if d := tt.Dist[v]; d < bestD {
					bestD = d
					bestTerm = i
					bestNode = v
				}
			}
		}
		if bestTerm < 0 || bestD == graph.Inf() {
			return graph.Tree{}, ErrNoRoute
		}
		// Splice the shortest path from the chosen tree node to the
		// terminal; every node on it joins the tree (a later terminal may
		// attach mid-path, which is where SPH's Steiner points come from).
		path := cache.Tree(net[bestTerm]).PathTo(bestNode)
		for _, id := range path {
			if edgeSet.Add(id) {
				edges = append(edges, id)
			}
			e := g.Edge(id)
			if inTree.Add(e.U) {
				treeNodes = append(treeNodes, e.U)
			}
			if inTree.Add(e.V) {
				treeNodes = append(treeNodes, e.V)
			}
		}
		if inTree.Add(net[bestTerm]) {
			treeNodes = append(treeNodes, net[bestTerm])
		}
		connected[bestTerm] = true
	}
	// The union of spliced paths can touch a tree node twice under ties;
	// finish with a local MST + prune exactly like KMB's steps 3–4.
	// localMST re-acquires both pooled sets; inTree/edgeSet are dead here.
	mst := localMST(cache, edges)
	return graph.PruneTree(g, cache.Scratch(), mst, net), nil
}
