package graph

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := new(UnionFind)
	u.Reset(n)
	return u
}

// Reset reinitializes u to n singleton sets, reusing its storage when it
// is large enough, so a long-lived UnionFind (TreeBuffers.UF) serves call
// after call without allocating.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.rank = make([]int8, n)
	}
	u.parent, u.rank = u.parent[:n], u.rank[:n]
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	clear(u.rank)
	u.sets = n
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing a and b and reports whether they were
// previously distinct.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// Connected reports whether a and b are in the same set.
func (u *UnionFind) Connected(a, b int32) bool { return u.Find(a) == u.Find(b) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }
