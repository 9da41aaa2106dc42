package graph

// CoordBounds supplies admissible lower bounds on shortest-path distances
// for goal-directed search (DijkstraWithinBounded, SPTCache.WithBounds,
// and the heuristics the pathfinder passes to AStarFromAnyOverlay). It
// bounds distances by geometry: each node carries coordinates and every
// edge's weight is promised to be at least the Manhattan (L1)
// displacement between its endpoints, so the L1 distance between two
// nodes lower-bounds every path length between them.
//
// Admissibility — the bound never exceeds the true shortest-path distance
// over enabled edges — is the correctness requirement; a bound that can
// overestimate makes goal-directed distances wrong. Consistency
// (|h(u) − h(v)| ≤ w for every enabled edge {u, v, w}) is additionally
// required by the searches, which settle each node once. The L1 promise
// gives both.
//
// The FPGA fabrics satisfy the promise by construction (see
// fpga.Fabric.Bounds and fpga3d.Fabric3D.Bounds): wire segments cost their
// span count, connection-block taps cost exactly the pin-midpoint-to-
// switch-block distance, jogs join co-located nodes, and congestion
// multiplies base weights by factors ≥ 1 — so the bound stays admissible
// and consistent across every mutation the routers perform, including
// Reset and non-negative overlay prices. A CoordBounds is immutable after
// construction, so concurrent searches share one without synchronization.
type CoordBounds struct {
	// X, Y are per-node coordinates. Z may be nil for planar graphs.
	X, Y, Z []float64
}

// LowerBound returns the Manhattan distance between u and v.
func (b *CoordBounds) LowerBound(u, v NodeID) float64 {
	d := abs(b.X[u]-b.X[v]) + abs(b.Y[u]-b.Y[v])
	if b.Z != nil {
		d += abs(b.Z[u] - b.Z[v])
	}
	return d
}

// SetBound is the lower bound ToSet builds for a goal set: the L1
// distance from a node to the goals' coordinate bounding box. It is a
// value, not a closure, so a search or a cache holds one without
// allocating. The zero SetBound bounds nothing, and a search given one
// runs unguided.
type SetBound struct {
	b                                  *CoordBounds
	minX, maxX, minY, maxY, minZ, maxZ float64
}

// ToSet returns the L1 distance to the goals' coordinate bounding box — an
// O(1)-per-node admissible lower bound on the minimum over goals of the
// Manhattan distance (weaker than the exact minimum for spread-out goal
// sets, but independent of the goal count; the router's stop sets run to a
// thousand nodes). An empty goal set gets the zero SetBound.
func (b *CoordBounds) ToSet(goals []NodeID) SetBound {
	if len(goals) == 0 {
		return SetBound{}
	}
	h := SetBound{b: b}
	h.minX, h.maxX = b.X[goals[0]], b.X[goals[0]]
	h.minY, h.maxY = b.Y[goals[0]], b.Y[goals[0]]
	if b.Z != nil {
		h.minZ, h.maxZ = b.Z[goals[0]], b.Z[goals[0]]
	}
	for _, g := range goals[1:] {
		h.minX, h.maxX = minmax(h.minX, h.maxX, b.X[g])
		h.minY, h.maxY = minmax(h.minY, h.maxY, b.Y[g])
		if b.Z != nil {
			h.minZ, h.maxZ = minmax(h.minZ, h.maxZ, b.Z[g])
		}
	}
	return h
}

// At returns the bound at v.
func (h *SetBound) At(v NodeID) float64 {
	b := h.b
	d := gap(b.X[v], h.minX, h.maxX) + gap(b.Y[v], h.minY, h.maxY)
	if b.Z != nil {
		d += gap(b.Z[v], h.minZ, h.maxZ)
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func minmax(lo, hi, x float64) (float64, float64) {
	if x < lo {
		lo = x
	}
	if x > hi {
		hi = x
	}
	return lo, hi
}

// gap returns the distance from x to the interval [lo, hi] (0 inside).
func gap(x, lo, hi float64) float64 {
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}
