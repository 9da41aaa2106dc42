package main

import (
	"errors"
	"fmt"
	"math"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/router"
)

// checkResult verifies a complete routing result from first principles,
// sharing no logic with the router: it rebuilds a fresh fabric at the
// reported width and checks, for every net,
//
//   - the tree is a tree spanning the net's pins (graph.ValidateTree);
//   - every tree edge exists and is enabled on the fresh fabric;
//   - no tree touches another net's pin;
//   - no channel wire and no switch-block jog is used by two nets;
//   - the reported per-net and total wirelength and max source-sink
//     pathlength equal the values recomputed on the fresh fabric.
func checkResult(ckt *circuits.Circuit, res *router.Result) error {
	if res == nil {
		return errors.New("no result")
	}
	if !res.Routed || res.Partial {
		return fmt.Errorf("result incomplete (routed=%v partial=%v)", res.Routed, res.Partial)
	}
	if len(res.Nets) != len(ckt.Nets) {
		return fmt.Errorf("result has %d nets, circuit has %d", len(res.Nets), len(ckt.Nets))
	}
	fab, err := fpga.NewFabric(ckt.ArchAt(res.Width))
	if err != nil {
		return fmt.Errorf("rebuild fabric at width %d: %w", res.Width, err)
	}
	g := fab.Graph()
	pinLo, pinHi := fab.PinNodeRange()
	pinNet := make(map[graph.NodeID]int)
	for i, net := range ckt.Nets {
		for _, p := range net.Pins {
			pinNet[fab.PinNode(p)] = i
		}
	}
	wireNet := make([]int32, fab.NumWires())
	for i := range wireNet {
		wireNet[i] = -1
	}
	jogNet := make(map[graph.EdgeID]int)
	var wl, mp float64
	for i, net := range ckt.Nets {
		nr := res.Nets[i]
		terms := make([]graph.NodeID, len(net.Pins))
		for k, p := range net.Pins {
			terms[k] = fab.PinNode(p)
		}
		for _, id := range nr.Tree.Edges {
			if id < 0 || int(id) >= g.NumEdges() {
				return fmt.Errorf("net %d: edge %d does not exist", net.ID, id)
			}
			if !g.Enabled(id) {
				return fmt.Errorf("net %d: edge %d is disabled on a fresh fabric", net.ID, id)
			}
			e := g.Edge(id)
			for _, v := range [2]graph.NodeID{e.U, e.V} {
				if v >= pinLo && v < pinHi {
					if owner, ok := pinNet[v]; !ok || owner != i {
						return fmt.Errorf("net %d: edge %d touches pin node %d of another net", net.ID, id, v)
					}
				}
			}
			if w := fab.WireOfEdge(id); w >= 0 {
				if owner := wireNet[w]; owner >= 0 && int(owner) != i {
					return fmt.Errorf("nets %d and %d share wire %d", ckt.Nets[owner].ID, net.ID, w)
				}
				wireNet[w] = int32(i)
			} else {
				if owner, ok := jogNet[id]; ok && owner != i {
					return fmt.Errorf("nets %d and %d share jog edge %d", ckt.Nets[owner].ID, net.ID, id)
				}
				jogNet[id] = i
			}
		}
		if err := graph.ValidateTree(g, nr.Tree, terms); err != nil {
			return fmt.Errorf("net %d: %w", net.ID, err)
		}
		w := fab.BaseWirelength(nr.Tree)
		m := fab.MaxPathlength(nr.Tree, terms[0], terms[1:])
		if !near(w, nr.Wirelength) || !near(m, nr.MaxPath) {
			return fmt.Errorf("net %d: reported wirelength %.4f / max path %.4f, recomputed %.4f / %.4f",
				net.ID, nr.Wirelength, nr.MaxPath, w, m)
		}
		wl += w
		mp += m
	}
	if !near(wl, res.Wirelength) || !near(mp, res.MaxPathSum) {
		return fmt.Errorf("reported totals wirelength %.4f / max path %.4f, recomputed %.4f / %.4f",
			res.Wirelength, res.MaxPathSum, wl, mp)
	}
	return nil
}

// near compares two sums of the same terms that may have been added in a
// different order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
