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
	"time"

	"fpgarouter/internal/graph"
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
	// graph nodes per round is needless (Section 3's "factoring out common
	// computations" discussion).
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
	// Lazy enables the lazy-greedy ("CELF"-style) candidate scan: each
	// candidate's last-known gain is kept as a stale priority, and a round
	// re-evaluates only the top of that queue — stale gains act as upper
	// bounds under the usual diminishing-returns behaviour of ΔH, so a
	// fresh head that still dominates the next stale entry wins the round
	// without touching the rest of the pool. Because ΔH under an arbitrary
	// base heuristic is not provably submodular, every fresh evaluation is
	// checked against its stale bound: a fresh gain that EXCEEDS its stale
	// value invalidates the queue and the round falls back to a full
	// rescan. Results are bit-identical to the exhaustive scan whenever
	// stale gains really are upper bounds (the Lazy parity suites assert
	// this); on instances where a never-re-evaluated candidate's gain
	// jumps, the scan may admit different Steiner points — still strictly
	// improving ones, so the template's cost bound holds — see lazyQueue
	// for the full exactness contract. Composes with Workers: queue bursts
	// fan out over the same forks, and the burst size is fixed so the
	// evaluated set (hence the result and every counter) is identical at
	// every Workers setting. The queue arms only for single-step
	// admission; under Batched the scans stay exhaustive (a batched round
	// consumes the whole improving-candidate ranking, so there is nothing
	// a stale bound can soundly skip — see lazyQueue).
	Lazy bool
}

// Stats reports work performed by an iterated construction, for the
// ablation benchmarks. The scan counters are int64 — a long min-width
// search multiplies rounds × pool × passes × widths, which a 32-bit int
// can overflow — matching the worker counters below and the stats layer.
type Stats struct {
	Rounds       int64 // candidate-scan rounds performed
	Evaluations  int64 // calls to the base heuristic H
	PointsChosen int64 // Steiner points admitted into S
	// LazyHits counts scan rounds the stale-gain queue served with a
	// partial evaluation (at least one candidate skipped); FullRescans
	// counts rounds that fell back to an exhaustive rescan after a fresh
	// gain exceeded its stale bound. EvaluationsSaved is the net number of
	// base-heuristic evaluations the lazy scan avoided versus the
	// exhaustive scan (negative contributions from fallback rounds, which
	// pay the burst and the rescan, are included), so for any run
	// Evaluations + EvaluationsSaved equals the exhaustive Evaluations.
	LazyHits         int64
	FullRescans      int64
	EvaluationsSaved int64
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
	// layer, so both add these separately; the sums then match a
	// single-worker construction's.
	WorkerSSSPRuns   int64
	WorkerHeapPushes int64
}

// IGMST runs the iterated template of Figure 5 over base heuristic H.
// net[0] is the source (relevant only to H's tie-breaking); the returned
// tree spans net and costs no more than H(G, net).
func IGMST(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, opts Options) (graph.Tree, error) {
	t, _, err := IGMSTStats(cache, net, H, opts)
	return t, err
}

// IGMSTStats is IGMST returning work statistics. With more than one
// worker (Options.Workers) and more than two terminals, it first computes
// every terminal's shortest-path tree concurrently and caches it in cache,
// then runs the template with its candidate scans sharded over the same
// workers. The tree and the scan counters are bit-identical to the
// single-worker construction's as long as H, when it reads the distance
// between two nodes neither of which has a cached tree, computes the tree
// of the endpoint it reads from — KMB, SPH and ZEL do (DESIGN.md §5).
func IGMSTStats(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, opts Options) (graph.Tree, Stats, error) {
	return iterate(cache, net, H, opts, true)
}

// iterate is the template behind IGMSTStats and IDOMStats; warm enables
// the terminal-tree warm-up.
func iterate(cache *graph.SPTCache, net []graph.NodeID, H steiner.Heuristic, opts Options, warm bool) (graph.Tree, Stats, error) {
	var st Stats
	// The scanner owns the per-worker forks of the cache (sequential when
	// Workers resolves to 1). Between fan-outs the cache is mutated freely —
	// admissions cache new established trees — because the forks are only
	// ever used inside warm and scan, never concurrently with an admission.
	// A net of at most two terminals needs no scanner: a Steiner point can
	// never improve a single shortest path (by the triangle inequality), so
	// the candidate scan is skipped entirely.
	var sc *scanner
	if len(net) > 2 {
		sc = newScanner(cache, H, opts)
		defer sc.close()
		if warm {
			sc.warm(&st, net)
		}
	}
	best, err := H(cache, net)
	if err != nil {
		return graph.Tree{}, st, err
	}
	st.Evaluations++
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
	// The lazy queue (nil when off) decides per round which candidates are
	// worth re-evaluating; exhaustive rounds go through sc.scan unchanged.
	// Both return evaluations in pool order, so the selection fold below is
	// shared verbatim. Batched admission never arms the queue: it consumes
	// the whole improving-candidate ranking, which stale bounds cannot
	// soundly prune (see lazyQueue's doc comment).
	var lz *lazyQueue
	if opts.Lazy && !opts.Batched {
		lz = newLazyQueue(pool)
	}

	for {
		st.Rounds++
		var evals []scanEval
		if lz != nil {
			evals = lz.round(&st, sc, best.Cost, spanned, inNS, pool)
		} else {
			evals = sc.scan(&st, spanned, inNS, pool)
		}
		if opts.Batched {
			admitted := false
			// Rank all improving candidates by savings against the round's
			// starting solution, then admit greedily.
			type cand struct {
				t    graph.NodeID
				gain float64
			}
			var cands []cand
			for _, ev := range evals {
				if ev.err != nil {
					continue
				}
				if g := best.Cost - ev.sol.Cost; g > gainEps {
					cands = append(cands, cand{ev.t, g})
				}
			}
			sortCands(cands, func(a, b cand) bool {
				if a.gain != b.gain {
					return a.gain > b.gain
				}
				return a.t < b.t
			})
			for _, c := range cands {
				sol, err := H(cache, withTerm(&sc.termBuf, spanned, c.t))
				st.Evaluations++
				if err != nil {
					continue
				}
				if best.Cost-sol.Cost > gainEps {
					spanned = append(spanned, c.t)
					inNS[c.t] = true
					cache.Tree(c.t) // keep every established node cached
					best = sol
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
				if ev.err != nil {
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
			cache.Tree(bestT) // keep every established node cached
			best = bestSol
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
	return IGMST(cache, net, steiner.KMB, Options{})
}

// IZEL is the IGMST template instantiated with Zelikovsky's heuristic
// (performance bound ≤ 11/6), the strongest Steiner construction evaluated
// in Table 1.
func IZEL(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	return IGMST(cache, net, steiner.ZEL, Options{})
}

// ISPH is the IGMST template instantiated with the Takahashi–Matsuyama
// shortest-paths heuristic (bound ≤ 2·(1−1/L)). The paper's template
// accepts *any* base heuristic; ISPH demonstrates that genericity with a
// base construction of a different character than KMB.
func ISPH(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	return IGMST(cache, net, steiner.SPH, Options{})
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

// sortCands is a tiny insertion-free sort wrapper kept local to avoid
// importing sort with a closure adapter at every call site.
func sortCands[T any](s []T, less func(a, b T) bool) {
	// Simple binary-insertion sort: candidate lists are short (only the
	// improving candidates of one round).
	for i := 1; i < len(s); i++ {
		j := i
		for j > 0 && less(s[j], s[j-1]) {
			s[j], s[j-1] = s[j-1], s[j]
			j--
		}
	}
}
