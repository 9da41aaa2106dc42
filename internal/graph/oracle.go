package graph

// ConnectedComponent returns the set of nodes reachable from src through
// enabled edges (including src), as a boolean membership slice.
func (g *Graph) ConnectedComponent(src NodeID) []bool {
	g.ensureCSR()
	seen := make([]bool, g.n)
	seen[src] = true
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, end := g.offsets[u], g.offsets[u+1]; i < end; i++ {
			if to := g.arcs[i].To; g.arcw[i] != inf && !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}
