package graph

import (
	"math/rand"
	"testing"
)

// swapItem is an entry of the swap-based heap: a key and its node in one
// struct, the layout pq had before it split them into two arrays.
type swapItem struct {
	dist float64
	node NodeID
}

// swapPQ is the binary heap pq replaced: push swaps the new entry up while
// its parent's key is strictly larger, and pop swaps the displaced last
// entry down while a child is strictly smaller, choosing the left child on
// ties. It is the oracle for pq's hole-moving push and bottom-up pop, which
// must leave their arrays exactly as this one leaves its own after every
// operation, and the heap of the pre-CSR search loop (legacyDijkstra).
type swapPQ []swapItem

func (q *swapPQ) push(d float64, v NodeID) {
	*q = append(*q, swapItem{d, v})
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

func (q *swapPQ) pop() NodeID {
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
	return top.node
}

// sameHeap reports whether q's key and node arrays hold o's entries, index
// for index.
func sameHeap(q pq, o swapPQ) bool {
	if len(q.keys) != len(o) || len(q.nodes) != len(o) {
		return false
	}
	for i, it := range o {
		if q.keys[i] != it.dist || q.nodes[i] != it.node {
			return false
		}
	}
	return true
}

// TestHeapPopParity drives pq and the swap-based oracle through the same
// random push/pop sequences and compares pq's key and node arrays with the
// oracle's entries after every push and every pop, not only the popped
// nodes: equal-key entries carry different nodes, so any difference in
// which entries move shows. Keys come from a handful of values (plus
// +Inf), so ties are everywhere — between the two children, between a
// child and the entry being sifted, and between a new entry and its
// parent — and the heaps grow to a few hundred entries and drain to empty
// repeatedly, which passes every shape of the last level, a lone last
// child included.
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
				got.push(d, node)
				want.push(d, node)
				node++
			} else if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("trial %d op %d: pop %d, oracle %d", trial, op, g, w)
			}
			if !sameHeap(got, want) {
				t.Fatalf("trial %d op %d: heap %v %v, oracle %v", trial, op, got.keys, got.nodes, want)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), want.pop(); g != w || !sameHeap(got, want) {
				t.Fatalf("trial %d drain: pop %d, oracle %d; heap %v %v, oracle %v", trial, g, w, got.keys, got.nodes, want)
			}
		}
	}
}
