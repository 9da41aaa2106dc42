// Package core implements the paper's primary contributions: the Iterated
// Graph Minimal Steiner Tree (IGMST) template of Section 3, its IKMB and
// IZEL instantiations, and the Iterated Dominance (IDOM) arborescence
// heuristic of Section 4.2.
//
// The common idea: given a base construction H, greedily grow a set S of
// Steiner nodes, at each step admitting the candidate t that maximizes the
// cost savings ΔH(G, N, S∪{t}) = cost(H(G, N∪S)) − cost(H(G, N∪S∪{t})),
// and stop when no candidate yields positive savings. The final solution is
// H(G, N∪S); its performance bound is therefore never worse than H's.
package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// gainEps is the minimum cost savings considered an improvement; it guards
// against floating-point noise admitting useless Steiner points.
const gainEps = 1e-9

// Options tunes the iterated template. The zero value is the faithful
// one-candidate-per-round construction scanning all of V − N.
type Options struct {
	// Candidates restricts the Steiner-candidate pool. Nil means every node
	// of the graph (minus net and already-chosen points). The FPGA router
	// passes a bounding-box pool here, since scanning |V| > 5000 routing
	// graph nodes per round is needless. Section 3's "factoring out common
	// computations" is done by IKMBStats' scans instead: each round does
	// the work its candidates share once (steiner.KMBRound).
	Candidates []graph.NodeID
	// MaxRounds caps the number of accepted Steiner points (0 = unlimited).
	MaxRounds int
	// Batched enables batch addition: each round ranks all improving
	// candidates and admits them greedily in order of savings, re-admitting
	// only candidates that still improve the current solution, rather than
	// rescanning the full pool after every single admission. This is the
	// "batches based on a non-interference criterion" variant of Section 3
	// (after Kahng & Robins); typical instances converge in ≤ 3 rounds.
	Batched bool
	// Workers bounds the construction's fan-out: before the first H call
	// the terminals' shortest-path trees are computed on this many
	// goroutines (nets of more than two terminals), and each
	// candidate-scan round shards its candidates over them, each worker
	// evaluating H against its own fork of the (frozen) shortest-paths
	// cache. 0 selects the default (GOMAXPROCS capped at 8); 1 or any
	// negative value selects the inline sequential construction, kept as
	// the regression oracle. Results are bit-identical at every setting:
	// the warmed trees are the ones H would compute, and evaluations are
	// reduced in pool order with the sequential tie-break.
	Workers int
}

// Stats reports work performed by an iterated construction, for the
// ablation benchmarks. The scan counters are int64 — a long min-width
// search multiplies rounds × pool × passes × widths, which a 32-bit int
// can overflow — matching the worker counters below and the stats layer.
type Stats struct {
	Rounds       int64 // candidate-scan rounds performed
	Evaluations  int64 // calls to the base heuristic H
	PointsChosen int64 // Steiner points admitted into S
	// Screened counts the evaluations, among Evaluations, that IKMBStats'
	// cost screen ruled out without building a tree (steiner.KMBScreened).
	Screened int64
	// ParallelScans counts scan rounds that actually fanned out over more
	// than one worker goroutine.
	ParallelScans int
	// ScanWall and ScanCPU split the parallel scans' cost: total wall-clock
	// across rounds versus summed per-worker busy time. Their ratio is the
	// achieved scan parallelism (1.0 on a single hardware thread).
	ScanWall time.Duration
	ScanCPU  time.Duration
	// WorkerSSSPRuns and WorkerHeapPushes count Dijkstra work performed
	// on the worker forks' scratches: the terminal-tree warm-up and any
	// search a parallel scan runs. It bypasses the caller's scratch, whose
	// counter deltas the router and the pathfinder feed to their stats
	// layer, so AddTo adds these separately; the sums then match a
	// single-worker construction's.
	WorkerSSSPRuns   int64
	WorkerHeapPushes int64
}

// AddTo adds the construction's work counters to s; the router and the
// pathfinder pass it to their collector's Record.
func (st Stats) AddTo(s *stats.Snapshot) {
	s.CandidateEvals += st.Evaluations
	s.Screened += st.Screened
	s.SteinerPoints += st.PointsChosen
	s.ParallelScans += int64(st.ParallelScans)
	s.ScanWall += st.ScanWall
	s.ScanCPU += st.ScanCPU
	s.SSSPRuns += st.WorkerSSSPRuns
	s.HeapPushes += st.WorkerHeapPushes
}

// IGMST runs the iterated template of Figure 5 over base heuristic H.
// net[0] is the source (relevant only to H's tie-breaking); the returned
// tree spans net and costs no more than H(G, net).
func IGMST(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, opts Options) (graph.Tree, error) {
	t, _, err := IGMSTStats(cache, net, H, opts)
	return t, err
}

// IGMSTStats is IGMST returning work statistics: the unscreened template,
// which calls H once per candidate. With H = steiner.KMB it is the
// regression oracle for IKMBStats, as Workers 1 is for the fan-out.
//
// With more than one worker (Options.Workers) and more than two terminals,
// it first computes every terminal's shortest-path tree concurrently and
// caches it in cache, then runs the template with its candidate scans
// sharded over the same workers. The tree and the scan counters are
// bit-identical to the single-worker construction's as long as H, when it
// reads the distance between two nodes neither of which has a cached tree,
// computes the tree of the endpoint it reads from — KMB, SPH and ZEL do
// (DESIGN.md §5).
func IGMSTStats(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, opts Options) (graph.Tree, Stats, error) {
	return iterate(cache, net, H, nil, opts, true)
}

// IKMBStats is IGMSTStats(cache, net, steiner.KMB, opts) with a certified
// screen in the exhaustive candidate scans and the batched re-admissions:
// each candidate runs KMB's steps 1–2 only, and KMB's step 3 runs only when
// steiner.KMBScreened cannot prove that the candidate's tree fails to
// improve the incumbent by more than gainEps, which is what every admission
// test requires. Screened evaluations count in Evaluations and in
// Screened, and the folds skip them as they skip errors. Each scan round
// evaluates its candidates through one steiner.KMBRound, which checks,
// spans and expands N ∪ S once for all of them. A batched round admits
// its top-ranked candidate with the tree its scan built, as the
// single-step fold does, since the incumbent has not moved yet; each later
// re-admission is screened against the incumbent it would replace. Only
// the first KMB call runs KMB unscreened.
//
// On a cache without an overlay, where a tree's cost and the searches'
// distances are the same base-weight sums, no search settles a node
// farther from its root than the incumbent's cost, plus a rounding margin
// (searchRadius): a tree spanning a candidate costs at least the distance
// from every spanned node to it, so a farther candidate cannot improve.
// The terminals' searches pause once the terminals are settled, and
// resume under the first KMB tree's radius; each admitted Steiner point
// is searched under the radius of the incumbent it joins. Trees the
// radius cut short are dropped from the cache on return.
//
// The tree and every counter but Screened (a far candidate now fails
// KMB's reachability check instead) and the heap pushes are those of the
// oracle, bit for bit, and so are the SSSP runs (DESIGN.md §5).
func IKMBStats(cache *graph.SPTCache, net []graph.NodeID, opts Options) (graph.Tree, Stats, error) {
	return iterate(cache, net, steiner.KMB, steiner.KMBScreened, opts, true)
}

// screenFunc is KMB with a certified cost screen, steiner.KMBScreened's
// contract: the tree KMB builds for net, or screened true and no tree when
// that tree's cost c certainly satisfies fl(best − c) ≤ eps.
type screenFunc func(cache *graph.SPTCache, net []graph.NodeID, best, eps float64) (graph.Tree, bool, error)

// searchRadius returns the key radius under which an n-node graph's
// searches still read, exactly, every distance and path that an
// evaluation able to beat an incumbent of cost best reads: best grown by
// n·2⁻⁵⁰ of itself, which covers the rounding of the two sums it compares
// (a Dijkstra label and a tree's cost, each of fewer than n terms) about
// 4× over. It is +Inf, no bound, for n ≥ 2²⁰ or a non-finite best
// (DESIGN.md §5).
func searchRadius(best float64, n int) float64 {
	if n >= 1<<20 || !(best <= math.MaxFloat64) {
		return math.Inf(1)
	}
	return best * (1 + float64(n)*0x1p-50)
}

// iterate is the template behind IGMSTStats, IKMBStats and IDOMStats;
// a non-nil screen, for H = steiner.KMB only, evaluates the exhaustive
// scans through a steiner.KMBRound and the batched re-admissions after a
// round's first through screen, and warm enables the terminal-tree
// warm-up.
func iterate(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, screen screenFunc, opts Options, warm bool) (graph.Tree, Stats, error) {
	var st Stats
	screened := screen != nil
	// bounded: IKMB on a cache whose trees cost what its searches measure
	// stops every search at the incumbent's radius (see IKMBStats).
	bounded := screened && len(net) > 2 && cache.Overlay() == nil
	// The scanner owns the per-worker forks of the cache (sequential when
	// Workers resolves to 1). Between fan-outs the cache is mutated freely —
	// admissions cache new established trees — because the forks are only
	// ever used inside warm and scan, never concurrently with an admission.
	// A net of at most two terminals needs no scanner: a Steiner point can
	// never improve a single shortest path (by the triangle inequality), so
	// the candidate scan is skipped entirely.
	var sc *scanner
	if len(net) > 2 {
		sc = newScanner(cache, H, screened, opts)
		defer sc.close()
		if bounded {
			// On return, drop the trees the radius cut short, and any
			// tree still paused after an error.
			defer cache.SetRadius(math.Inf(1))
		}
		if warm {
			sc.warm(&st, net, bounded)
		}
	}
	best, err := H(cache, net)
	if err != nil {
		return graph.Tree{}, st, err
	}
	st.Evaluations++
	// bound sets the radius of the incumbent best for the searches to come.
	bound := func() {
		if bounded {
			cache.SetRadius(searchRadius(best.Cost, cache.Graph().NumNodes()))
		}
	}
	if bounded {
		// The first KMB read only terminal distances and paths, all
		// settled before the pause; the searches now run on to the radius.
		bound()
		sc.resume(&st, net)
	}
	if sc == nil {
		return best, st, nil
	}
	// Force-cache shortest-path trees for every established node. With all
	// of N ∪ S cached, a candidate evaluation only ever pairs the (single,
	// uncached) candidate with cached nodes, so the cache's symmetric
	// lookup never falls back to a Dijkstra rooted at a candidate — one
	// such fallback per candidate would dominate the whole construction.
	for _, v := range net {
		cache.Tree(v)
	}

	inNS := make(map[graph.NodeID]bool, len(net))
	for _, v := range net {
		inNS[v] = true
	}
	pool := candidatePool(cache.Graph(), opts.Candidates)
	spanned := append([]graph.NodeID(nil), net...) // N ∪ S

	for {
		st.Rounds++
		evals := sc.scan(&st, spanned, inNS, pool, best.Cost)
		if opts.Batched {
			admitted := false
			// Rank all improving candidates by savings against the round's
			// starting solution, then admit greedily.
			type cand struct {
				t    graph.NodeID
				gain float64
				sol  graph.Tree
			}
			var cands []cand
			for _, ev := range evals {
				if ev.err != nil || ev.screened {
					continue
				}
				if g := best.Cost - ev.sol.Cost; g > gainEps {
					cands = append(cands, cand{ev.t, g, ev.sol})
				}
			}
			slices.SortFunc(cands, func(a, b cand) int {
				return cmp.Or(cmp.Compare(b.gain, a.gain), cmp.Compare(a.t, b.t))
			})
			for k, c := range cands {
				// A screened construction admits the top-ranked candidate
				// with the tree its scan built: nothing has moved since,
				// so it is the tree KMB would build now.
				sol, ok := c.sol, true
				switch {
				case screened && k > 0:
					var out bool
					var err error
					sol, out, err = screen(cache, withTerm(&sc.termBuf, spanned, c.t), best.Cost, gainEps)
					if out {
						st.Screened++
					}
					ok = err == nil && !out
				case !screened:
					var err error
					sol, err = H(cache, withTerm(&sc.termBuf, spanned, c.t))
					ok = err == nil
				}
				st.Evaluations++
				if ok && best.Cost-sol.Cost > gainEps {
					spanned = append(spanned, c.t)
					inNS[c.t] = true
					best = sol
					bound()
					cache.Tree(c.t) // keep every established node cached
					st.PointsChosen++
					admitted = true
					if opts.MaxRounds > 0 && st.PointsChosen >= int64(opts.MaxRounds) {
						return best, st, nil
					}
				}
			}
			if !admitted {
				return best, st, nil
			}
		} else {
			bestGain := 0.0
			bestT := graph.None
			var bestSol graph.Tree
			for _, ev := range evals {
				if ev.err != nil || ev.screened {
					continue
				}
				// Strict improvement over the best gain so far; evals are in
				// deterministic pool order, so ties keep the first hit.
				if g := best.Cost - ev.sol.Cost; g > bestGain+gainEps {
					bestGain = g
					bestT = ev.t
					bestSol = ev.sol
				}
			}
			if bestT == graph.None {
				return best, st, nil
			}
			spanned = append(spanned, bestT)
			inNS[bestT] = true
			best = bestSol
			bound()
			cache.Tree(bestT) // keep every established node cached
			st.PointsChosen++
			if opts.MaxRounds > 0 && st.PointsChosen >= int64(opts.MaxRounds) {
				return best, st, nil
			}
		}
	}
}

// IKMB is the IGMST template instantiated with the KMB heuristic
// (performance bound ≤ 2·(1−1/L)); this is the algorithm the paper's FPGA
// router uses for non-critical nets in Tables 2 and 3.
func IKMB(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	t, _, err := IKMBStats(cache, net, Options{})
	return t, err
}

// IZEL is the IGMST template instantiated with Zelikovsky's heuristic
// (performance bound ≤ 11/6), the strongest Steiner construction evaluated
// in Table 1.
func IZEL(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	return IGMST(cache, net, steiner.ZEL, Options{})
}

// candidatePool returns the candidate node list: the provided pool, or all
// nodes of g.
func candidatePool(g *graph.Graph, pool []graph.NodeID) []graph.NodeID {
	if pool != nil {
		return pool
	}
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}
