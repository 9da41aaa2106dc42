package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// swapPQ is the top-down, swap-based binary heap pq replaced: push is the
// same, pop swaps the displaced last entry down while a child is strictly
// smaller, choosing the left child on ties. It is the oracle for pq's
// bottom-up pop, which must leave the backing array exactly as this one
// does after every operation.
type swapPQ []pqItem

func (q *swapPQ) push(it pqItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	h := *q
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *swapPQ) pop() pqItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].dist < h[small].dist {
			small = l
		}
		if r < len(h) && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}

// TestHeapPopParity drives pq and the swap-based oracle through the same
// random push/pop sequences and compares their whole backing arrays after
// every operation, not only the popped entries: equal-key entries carry
// different nodes, so any difference in which entries move shows. Keys come
// from a handful of values (plus +Inf), so ties are everywhere — between
// the two children, and between a child and the entry being sifted — and
// the heaps grow to a few hundred entries and drain to empty repeatedly,
// which passes every shape of the last level, a lone last child included.
func TestHeapPopParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		var got pq
		var want swapPQ
		distinct := 1 + rng.Intn(6)
		pushBias := 0.3 + 0.5*rng.Float64()
		node := NodeID(0)
		for op := 0; op < 600; op++ {
			if len(want) == 0 || rng.Float64() < pushBias {
				d := float64(rng.Intn(distinct))
				if rng.Intn(20) == 0 {
					d = inf
				}
				it := pqItem{d, node}
				node++
				got.push(it)
				want.push(it)
			} else {
				g, w := got.pop(), want.pop()
				if g != w {
					t.Fatalf("trial %d op %d: pop %+v, oracle %+v", trial, op, g, w)
				}
			}
			if !slices.Equal(got, pq(want)) {
				t.Fatalf("trial %d op %d: heap %v, oracle %v", trial, op, got, want)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), want.pop(); g != w || !slices.Equal(got, pq(want)) {
				t.Fatalf("trial %d drain: pop %+v, oracle %+v; heap %v, oracle %v", trial, g, w, got, want)
			}
		}
	}
}
