package steiner

import (
	"math"
	"slices"
	"sync"

	"fpgarouter/internal/graph"
)

// KMBRound evaluates the candidates of one IGMST scan round through
// KMBScreened while paying once for what they share. A round's nets are
// spanned ++ [t]: the spanned nodes N ∪ S, the same for every candidate,
// and one candidate t, always the last index K. Reset does the spanned-only
// work once per round: it resolves each spanned node's cached tree, runs
// CheckNet(spanned), runs Prim over spanned alone, recording every step,
// and expands and unions the spanned-only MST pairs' paths. KMBScreened
// then only adds t.
//
// Why the result is KMBScreened's, bit for bit (DESIGN.md §5):
//   - t is the highest index, so it loses every tie of Prim's selection,
//     and until it joins no spanned key changes: t joins at the first step
//     s whose recorded selected key is strictly greater than t's running
//     minimum distance to the nodes selected before s, read from their
//     trees as distanceMSTPairs reads it. The s−1 pairs before s are the
//     round's.
//   - If t joins last, the union is the round's plus the path from t's
//     parent's tree, so the edge count, node count and base-weight sum
//     continue the round's in KMBScreened's first-occurrence order.
//   - If t joins earlier, Prim continues from the recorded state before
//     step s, reading distances to t from the spanned node's tree (t has
//     no cached tree), and the union continues from the round's prefix of
//     s−1 pairs: Reset marks every union edge and node with the pair that
//     first reached it, and the prefix counts and sums are recorded per
//     pair.
//
// Each pair's path comes from the tree SPTCache.AppendPath would read:
// the first endpoint's, or the spanned endpoint's when the first is t. A
// walk that reaches a prefix edge first reached by a pair walked in the
// same tree stops there: the rest of it is that pair's path, all in the
// prefix. A screened-out candidate returns after the walks; any other
// rebuilds the full path list and runs KMB's step 3 as KMBScreened does.
//
// After Reset, a round is read-only: any number of goroutines may call
// KMBScreened concurrently, each on its own cache, which must be the cache
// Reset read or a fork of it, with that cache unchanged since Reset (the
// scan's forks' contract, graph.SPTCache.Fork). Anything the recorded
// state cannot reproduce falls back to the plain KMBScreened: a spanned
// node without a cached tree, a spanned set CheckNet rejects or Prim cannot
// span, a net that is not spanned ++ [t], or a candidate with a cached
// tree of its own.
type KMBRound struct {
	spanned []graph.NodeID
	trees   []*graph.SPT // trees[i] is the cached tree rooted at spanned[i]
	// exact reports that Reset recorded the round; otherwise every
	// KMBScreened call falls back to the plain KMBScreened.
	exact bool

	// Prim over spanned alone. Step s selects order[s] at key selKey[s];
	// at[v] is the step that selects v. Row s of stepKey and stepFrom (K
	// entries each) is the key and parent array before step s. pairs[s−1]
	// is the pair step s adds.
	order, at []int32
	selKey    []float64
	stepKey   []float64
	stepFrom  []int32
	pairs     [][2]int32

	// The union of the pairs' expanded paths. paths concatenates them in
	// pair order; the first j pairs' paths end at pathEnd[j] and hold
	// unionEdges[j] distinct edges over unionNodes[j] distinct nodes, whose
	// base weights sum to unionSum[j] in first-occurrence order. edges and
	// nodes stamp each distinct edge and node with base plus the index of
	// the pair that first reached it; earlier rounds' stamps lie below
	// base, so stamp − base, unsigned, is below j exactly for the first j
	// pairs' edges and nodes.
	paths      []graph.EdgeID
	pathEnd    []int
	unionEdges []int
	unionNodes []int
	unionSum   []float64
	edges      []uint32
	nodes      []uint32
	base       uint32
	stamps     uint32 // stamps the last round used, from base on
}

var roundPool = sync.Pool{New: func() any { return new(KMBRound) }}

// AcquireKMBRound takes a round from a process-wide pool: its union marks
// are sized to the graph, so a round is worth keeping across nets. Pair
// with ReleaseKMBRound.
func AcquireKMBRound() *KMBRound { return roundPool.Get().(*KMBRound) }

// ReleaseKMBRound drops the round's references to cached trees and returns
// it to the pool.
func ReleaseKMBRound(r *KMBRound) {
	clear(r.trees)
	r.trees = r.trees[:0]
	r.exact = false
	roundPool.Put(r)
}

// Reset records the round for spanned on cache. It reads cache only: it
// computes no tree.
func (r *KMBRound) Reset(cache *graph.SPTCache, spanned []graph.NodeID) {
	r.spanned = append(r.spanned[:0], spanned...)
	clear(r.trees)
	r.trees = r.trees[:0]
	r.exact = false
	for _, v := range spanned {
		t, ok := cache.CachedTree(v)
		if !ok {
			return
		}
		r.trees = append(r.trees, t)
	}
	if CheckNet(cache, spanned) != nil || !r.prim() {
		return
	}
	r.union(cache.Graph())
	r.exact = true
}

// prim runs distanceMSTPairs' Prim over spanned alone, recording every
// step, and reports whether it spanned every node.
func (r *KMBRound) prim() bool {
	k := len(r.spanned)
	stepKey, stepFrom := grow(&r.stepKey, k*k), grow(&r.stepFrom, k*k)
	order, at, selKey := grow(&r.order, k), grow(&r.at, k), grow(&r.selKey, k)
	for v := range k {
		stepKey[v], stepFrom[v], at[v] = graph.Inf(), -1, int32(k)
	}
	stepKey[0] = 0
	pairs := r.pairs[:0]
	for s := range k {
		key, from := stepKey[s*k:(s+1)*k], stepFrom[s*k:(s+1)*k]
		u := -1
		for v := range k {
			if at[v] == int32(k) && (u < 0 || key[v] < key[u]) {
				u = v
			}
		}
		if key[u] == graph.Inf() {
			return false
		}
		order[s], at[u], selKey[s] = int32(u), int32(s), key[u]
		if from[u] >= 0 {
			pairs = append(pairs, [2]int32{from[u], int32(u)})
		}
		if s+1 == k {
			break
		}
		next, nextFrom := stepKey[(s+1)*k:(s+2)*k], stepFrom[(s+1)*k:(s+2)*k]
		copy(next, key)
		copy(nextFrom, from)
		tu := r.trees[u]
		for v := range k {
			if at[v] == int32(k) {
				if d := tu.Dist[r.spanned[v]]; d < next[v] {
					next[v], nextFrom[v] = d, int32(u)
				}
			}
		}
	}
	r.pairs = pairs
	return true
}

// union expands the spanned-only pairs from their first endpoints' trees
// and records the union's prefix counts, sums and first-pair stamps.
func (r *KMBRound) union(g *graph.Graph) {
	if len(r.edges) < g.NumEdges() {
		r.edges = make([]uint32, g.NumEdges())
	}
	if len(r.nodes) < g.NumNodes() {
		r.nodes = make([]uint32, g.NumNodes())
	}
	// This round's stamps start above the last round's; stamps never set
	// are 0, below every base.
	k := len(r.spanned)
	r.base += r.stamps
	if r.base == 0 || r.base > math.MaxUint32-uint32(k) {
		clear(r.edges)
		clear(r.nodes)
		r.base = 1
	}
	r.stamps = uint32(len(r.pairs))
	pathEnd, unionEdges, unionNodes, unionSum := grow(&r.pathEnd, k), grow(&r.unionEdges, k), grow(&r.unionNodes, k), grow(&r.unionSum, k)
	paths := r.paths[:0]
	m, n, sum := 0, 0, 0.0
	for j, pr := range r.pairs {
		pathEnd[j], unionEdges[j], unionNodes[j], unionSum[j] = len(paths), m, n, sum
		stamp := r.base + uint32(j)
		start := len(paths)
		paths = r.trees[pr[0]].AppendPath(paths, r.spanned[pr[1]])
		for _, e := range paths[start:] {
			if r.edges[e] >= r.base {
				continue
			}
			r.edges[e] = stamp
			m++
			ge := g.Edge(e)
			sum += ge.W
			for _, v := range [2]graph.NodeID{ge.U, ge.V} {
				if r.nodes[v] < r.base {
					r.nodes[v] = stamp
					n++
				}
			}
		}
	}
	last := len(r.pairs)
	pathEnd[last], unionEdges[last], unionNodes[last], unionSum[last] = len(paths), m, n, sum
	r.paths = paths
}

// KMBScreened returns exactly what KMBScreened(cache, net, best, eps)
// returns: the same tree, screened flag and error. It is fast when net is
// the round's spanned nodes followed by one candidate and cache is the
// cache Reset read or a fork of it (see KMBRound).
func (r *KMBRound) KMBScreened(cache *graph.SPTCache, net []graph.NodeID, best, eps float64) (graph.Tree, bool, error) {
	k := len(r.spanned)
	if !r.exact || len(net) != k+1 || !slices.Equal(net[:k], r.spanned) {
		return KMBScreened(cache, net, best, eps)
	}
	t := net[k]
	// CheckNet(net) with CheckNet(spanned) passed: t's range, then its
	// duplicate, then its reachability from net[0]'s tree.
	if t < 0 || int(t) >= cache.Graph().NumNodes() {
		return graph.Tree{}, false, errPinRange(t)
	}
	if slices.Contains(r.spanned, t) {
		return graph.Tree{}, false, errDuplicatePin(t)
	}
	if !r.trees[0].Reachable(t) {
		return graph.Tree{}, false, ErrNoRoute
	}
	// A cache that sees more trees than the spanned ones may hold t's,
	// which distanceMSTPairs and AppendPath would read.
	if cache.NumCached() != k {
		if _, ok := cache.CachedTree(t); ok {
			return KMBScreened(cache, net, best, eps)
		}
	}
	// t joins at step s. Step 0 selects spanned[0], whose tree reaches t,
	// so t's key is finite from step 1 on.
	key, from := graph.Inf(), int32(-1)
	s := 1
	for ; ; s++ {
		u := r.order[s-1]
		if d := r.trees[u].Dist[t]; d < key {
			key, from = d, u
		}
		if s == k || key < r.selKey[s] {
			break
		}
	}
	b := cache.Scratch().TreeBuffers()
	pairs := append(b.Pairs[:0], [2]int32{from, int32(k)})
	if s < k {
		var err error
		if pairs, err = r.continuePrim(b, pairs, t, s); err != nil {
			return graph.Tree{}, false, err
		}
	}
	b.Pairs = pairs
	// The union: the round's first j = s−1 pairs, then the pairs from
	// step s on, whose edges and nodes count unless the prefix or an
	// earlier one of them holds them.
	j := uint32(s - 1)
	g := cache.Graph()
	m, n, sum := r.unionEdges[j], r.unionNodes[j], r.unionSum[j]
	seenEdges, seenNodes := cache.EdgeSet(), cache.NodeSet()
	for _, pr := range pairs {
		a, x := r.pathTree(pr, t)
		tr := r.trees[a]
		for ; tr.ParentEdge[x] != graph.None; x = tr.ParentNode[x] {
			e := tr.ParentEdge[x]
			if p := r.edges[e] - r.base; p < j {
				if r.pairs[p][0] == a {
					break // the rest is pair p's path, walked in the same tree
				}
				continue
			}
			if !seenEdges.Add(e) {
				continue
			}
			m++
			sum += g.Weight(e)
			// e joins x to its parent: the edge's two endpoints.
			for _, v := range [2]graph.NodeID{x, tr.ParentNode[x]} {
				if r.nodes[v]-r.base >= j && seenNodes.Add(v) {
					n++
				}
			}
		}
	}
	if m == n-1 && best-screenBound(sum, m) <= eps {
		return graph.Tree{}, true, nil
	}
	// Build the tree from the path list KMBScreened expands: the prefix's
	// paths, then the later pairs' whole paths.
	paths := append(b.Paths[:0], r.paths[:r.pathEnd[j]]...)
	for _, pr := range pairs {
		a, x := r.pathTree(pr, t)
		paths = r.trees[a].AppendPath(paths, x)
	}
	b.Paths = paths
	return graph.PruneTree(g, cache.Scratch(), localMST(cache, paths), net), false, nil
}

// continuePrim continues Prim over spanned ++ [t] after t joins at step s,
// from the recorded state before step s, and appends the pairs of the
// remaining steps. It works in b's Prim slices.
func (r *KMBRound) continuePrim(b *graph.TreeBuffers, pairs [][2]int32, t graph.NodeID, s int) ([][2]int32, error) {
	k := len(r.spanned)
	key := append(b.PrimKey[:0], r.stepKey[s*k:(s+1)*k]...)
	from := append(b.PrimFrom[:0], r.stepFrom[s*k:(s+1)*k]...)
	done := grow(&b.PrimDone, k)
	b.PrimKey, b.PrimFrom = key, from
	for v := range k {
		done[v] = r.at[v] < int32(s)
	}
	// t's distances come from the other endpoint's tree, as Dist reads
	// them when t has none.
	for v := range k {
		if !done[v] {
			if d := r.trees[v].Dist[t]; d < key[v] {
				key[v], from[v] = d, int32(k)
			}
		}
	}
	for range k - s {
		u := -1
		for v := range k {
			if !done[v] && (u < 0 || key[v] < key[u]) {
				u = v
			}
		}
		if key[u] == graph.Inf() {
			return nil, ErrNoRoute
		}
		done[u] = true
		pairs = append(pairs, [2]int32{from[u], int32(u)})
		tu := r.trees[u]
		for v := range k {
			if !done[v] {
				if d := tu.Dist[r.spanned[v]]; d < key[v] {
					key[v], from[v] = d, int32(u)
				}
			}
		}
	}
	return pairs, nil
}

// pathTree returns the spanned index whose tree SPTCache.AppendPath reads
// for pair pr of spanned ++ [t], and the node its walk starts from: the
// first endpoint's tree, or the spanned endpoint's when the first is t.
func (r *KMBRound) pathTree(pr [2]int32, t graph.NodeID) (int32, graph.NodeID) {
	k := int32(len(r.spanned))
	switch {
	case pr[0] == k:
		return pr[1], t
	case pr[1] == k:
		return pr[0], t
	default:
		return pr[0], r.spanned[pr[1]]
	}
}
