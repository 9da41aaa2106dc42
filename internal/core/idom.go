package core

import (
	"fpgarouter/internal/arbor"
	"fpgarouter/internal/graph"
)

// IDOM is the Iterated Dominance heuristic of Section 4.2: the iterated
// greedy template applied to the DOM spanning-arborescence construction.
// It repeatedly admits the Steiner candidate t maximizing
// ΔDOM(G, N, S∪{t}) > 0 and returns DOM(G, N∪S).
//
// The result is a Steiner arborescence: every source-sink path is a
// shortest path in G, with total wirelength reduced by the admitted Steiner
// points. The paper conjectures an O(log N) performance ratio, which is the
// best possible for the GSA problem unless NP has slightly superpolynomial
// deterministic algorithms (via the Set Cover hardness of Figure 14).
func IDOM(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	t, _, err := IDOMStats(cache, net, Options{})
	return t, err
}

// IDOMStats is IDOM returning work statistics for the ablation benches.
// Unlike IGMSTStats it never warms the terminals' trees on the workers:
// DOM reads the distance between a sink and an earlier net node off the
// sink's tree when only that one is cached, so caching every terminal's
// tree first could change the bits it reads (DESIGN.md §5). Its candidate
// scans still fan out over Options.Workers.
func IDOMStats(cache *graph.SPTCache, net []graph.NodeID, opts Options) (graph.Tree, Stats, error) {
	return iterate(cache, net, arbor.DOM, nil, opts, false)
}
