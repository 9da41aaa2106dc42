package core

import (
	"math"
	"sort"

	"fpgarouter/internal/graph"
)

// lazyBurst is how many queue entries a lazy round re-evaluates per batch.
// It is a fixed constant — NOT derived from Options.Workers — so the set of
// candidates a round evaluates (and with it the queue state, the violation
// checks, and every Stats counter) is identical at every worker setting;
// Workers only changes how a burst's evaluations are sharded over forks.
// Eight matches maxScanWorkers, keeping the default fan-out saturated.
const lazyBurst = 8

// unknownGain marks a candidate whose gain under the current solution has
// never been observed (or whose last evaluation errored). Unknown sorts
// above every finite priority, so such candidates are always re-evaluated —
// exactly what the exhaustive scan does for them.
var unknownGain = math.Inf(1)

// lazyQueue is the lazy-greedy ("CELF"-style) candidate-scan engine for
// single-step admission: a max-priority queue of candidates keyed by their
// last-known gain. Under diminishing returns — admitting a Steiner point
// never makes another candidate more valuable — a stale gain is an upper
// bound on the fresh one, so a round only needs to re-evaluate queue
// entries from the top until the best fresh gain seen dominates the next
// stale bound; everything below cannot win the round's fold, and entries
// at or below gainEps cannot even participate.
//
// Exactness contract. ΔH under an arbitrary base heuristic is not provably
// submodular, so the engine never trusts the bounds blindly: every fresh
// evaluation is compared against its stale value, and a fresh gain that
// exceeds it triggers a full exhaustive rescan of the round (rebuilding
// every priority). That fallback makes the scan bit-identical to the
// exhaustive template whenever stale gains really are upper bounds —
// which the Lazy parity suites assert across heuristics, worker counts,
// and whole routed circuits — but it is inherently incomplete: a
// supermodular jump in a candidate the round never re-evaluates (its
// stale bound keeps it buried below the cut) is unobservable without
// evaluating it, which is exactly the work being saved. On
// congestion-weighted routing graphs such jumps do occur (admitting a
// Steiner point can unlock a shortcut through a previously useless
// neighbour), so a lazily routed circuit may admit different Steiner
// points than the exhaustive scan. What stays guaranteed unconditionally:
// every admission strictly improves the current solution (the template's
// cost-never-worse-than-H bound survives verbatim), and the evaluated
// set — hence the result and every counter — is a pure function of the
// queue state, independent of Options.Workers (see lazyBurst). DESIGN.md
// §5 works through why no black-box mechanism can close the gap: skipping
// an evaluation and knowing its value are the same information.
//
// The queue deliberately does NOT arm for batched admission. A batched
// round ranks and re-admits the ENTIRE improving-candidate set, so the
// only sound skip would be a candidate whose current gain is already
// known — and after any admission no stale gain is current. A skipped
// "non-improving" candidate that turned improving would silently change
// the ranking with no evaluated bound violation to trip the fallback, so
// laziness in batched mode cannot preserve bit-identity while saving
// anything. IGMSTStats therefore leaves batched rounds exhaustive.
//
// The queue itself is a slice re-sorted per round (gain descending, pool
// index ascending): rounds may consume most of it, candidate pools are
// ≤ 1024 in the router, and a deterministic total order is what keeps the
// burst contents — hence all counters — reproducible.
type lazyQueue struct {
	gain    []float64 // stale gain by pool index
	poolIdx map[graph.NodeID]int

	order []int      // round scratch: candidate pool indices, priority order
	out   []scanEval // round scratch: evaluated subset, pool order
	outIx []int      // pool index of each out entry (for the final sort)
}

// newLazyQueue sizes the engine for a candidate pool. All gains start
// unknown, so the first round evaluates everything — the priming scan the
// exhaustive template would also perform.
func newLazyQueue(pool []graph.NodeID) *lazyQueue {
	lz := &lazyQueue{
		gain:    make([]float64, len(pool)),
		poolIdx: make(map[graph.NodeID]int, len(pool)),
	}
	for i, t := range pool {
		lz.gain[i] = unknownGain
		lz.poolIdx[t] = i
	}
	return lz
}

// round produces the round's evaluations: a pool-ordered subset of the
// candidates such that the caller's selection fold over the subset picks
// the same winner as the fold over the full pool. Only the winner matters
// in single-step admission, so the queue is consumed top-down in bursts
// and the round stops as soon as the remaining stale bounds can neither
// beat the best fresh gain seen nor clear gainEps. bestCost is the cost of
// the current solution (gains are measured against it, exactly as the
// caller's fold does).
func (lz *lazyQueue) round(st *Stats, sc *scanner, bestCost float64, spanned []graph.NodeID, inNS map[graph.NodeID]bool, pool []graph.NodeID) []scanEval {
	lz.order = lz.order[:0]
	for i, t := range pool {
		if !inNS[t] {
			lz.order = append(lz.order, i)
		}
	}
	n := len(lz.order)
	order := lz.order
	sort.Slice(order, func(a, b int) bool {
		ga, gb := lz.gain[order[a]], lz.gain[order[b]]
		if ga != gb {
			return ga > gb
		}
		return order[a] < order[b]
	})
	lz.out = lz.out[:0]
	lz.outIx = lz.outIx[:0]
	maxFresh := 0.0
	evaluated := 0
	for pos := 0; pos < n; {
		// Entries at or below thr cannot win: their fresh gain is bounded
		// by a stale value that neither clears gainEps nor comes within
		// gainEps of the best fresh gain already in hand. order is sorted
		// descending, so the first such entry ends the round.
		thr := max(gainEps, maxFresh-gainEps)
		end := pos
		for end < n && end-pos < lazyBurst && lz.gain[order[end]] > thr {
			end++
		}
		if end == pos {
			break
		}
		sc.targets = sc.targets[:0]
		for _, i := range order[pos:end] {
			sc.targets = append(sc.targets, pool[i])
		}
		evals := sc.evaluate(st, spanned, graph.Inf())
		evaluated += len(evals)
		for k, ev := range evals {
			i := order[pos+k]
			if ev.err != nil {
				lz.gain[i] = unknownGain
				lz.out = append(lz.out, ev)
				lz.outIx = append(lz.outIx, i)
				continue
			}
			g := bestCost - ev.sol.Cost
			if g > lz.gain[i] {
				// Stale bound violated: a skipped candidate's bound may be
				// just as wrong. Rescan the whole round exhaustively.
				return lz.fullRescan(st, sc, bestCost, spanned, inNS, pool, evaluated)
			}
			lz.gain[i] = g
			if g > maxFresh {
				maxFresh = g
			}
			lz.out = append(lz.out, ev)
			lz.outIx = append(lz.outIx, i)
		}
		pos = end
	}
	// Pool order for the caller's fold, so ties break exactly as in the
	// exhaustive scan. Insertion sort: bursts are short and come out nearly
	// sorted already.
	out, ix := lz.out, lz.outIx
	for i := 1; i < len(out); i++ {
		j := i
		for j > 0 && ix[j] < ix[j-1] {
			ix[j], ix[j-1] = ix[j-1], ix[j]
			out[j], out[j-1] = out[j-1], out[j]
			j--
		}
	}
	if skipped := n - evaluated; skipped > 0 {
		st.LazyHits++
		st.EvaluationsSaved += int64(skipped)
	}
	return out
}

// fullRescan is the exactness fallback: evaluate every candidate of the
// round exhaustively (the same pool-ordered scan the non-lazy template
// runs) and refresh every priority from the results — the queue then holds
// nothing stale. alreadyEvaluated is what the aborted lazy attempt spent
// before falling back; it is charged against EvaluationsSaved so the
// counter stays an honest net saving and the identity
// Evaluations + EvaluationsSaved == exhaustive Evaluations holds.
func (lz *lazyQueue) fullRescan(st *Stats, sc *scanner, bestCost float64, spanned []graph.NodeID, inNS map[graph.NodeID]bool, pool []graph.NodeID, alreadyEvaluated int) []scanEval {
	st.FullRescans++
	st.EvaluationsSaved -= int64(alreadyEvaluated)
	evals := sc.scan(st, spanned, inNS, pool, graph.Inf())
	for _, ev := range evals {
		i := lz.poolIdx[ev.t]
		if ev.err != nil {
			lz.gain[i] = unknownGain
			continue
		}
		lz.gain[i] = bestCost - ev.sol.Cost
	}
	return evals
}
