package fpga

import (
	"fmt"

	"fpgarouter/internal/graph"
)

// Default edge lengths, in channel-span units. A full wire segment between
// two switch blocks has length 1; a connection-block tap reaches the middle
// of a segment (0.5); an intra-switch-block jog (Fs = 6 extra flexibility)
// is nearly free but slightly discouraged.
const (
	SegmentLength = 1.0
	TapLength     = 0.5
	JogLength     = 0.05
)

// WireID identifies one physical channel wire: a (channel span, track)
// pair. Wires are the unit of electrical capacity — a wire claimed by one
// net is unusable by every other net.
type WireID = int32

// noWire marks edges (intra-switch-block jogs) that are not part of any
// channel wire.
const noWire WireID = -1

// Fabric is an instantiated FPGA routing fabric: the routing graph plus the
// wire/span bookkeeping needed for capacity, congestion and rip-up.
type Fabric struct {
	Arch
	g *graph.Graph

	numSB    int // (Cols+1)*(Rows+1)*W switch-block/track nodes
	hSpans   int // Cols*(Rows+1) horizontal channel spans
	numSpans int // hSpans + (Cols+1)*Rows

	edgeWire  []WireID         // edge → owning wire (or noWire)
	wireEdges [][]graph.EdgeID // wire → its segment and tap edges
	wireSpans [][]int32        // wire → channel spans it covers (≥1 when segmented)
	spanWire  []WireID         // (span*W + track) → covering wire
	claimed   []bool           // wire → claimed by a committed net
	spanUsed  []int32          // span → number of claimed wires
	baseW     []float64        // edge → uncongested wirelength
	// taps and tapWires hold every pin's connection block, indexed by
	// pin = node − numSB: pin i owns taps[2·Fc·i:2·Fc·(i+1)] (two per
	// wire, one toward each wire end) and tapWires[Fc·i:Fc·(i+1)]. See
	// pinTaps and pinWires.
	taps     []graph.EdgeID
	tapWires []WireID
	// open lists the pins whose taps BeginNet may have left enabled: the
	// last net's pins, or every pin after NewFabric and Reset. Every other
	// pin's taps are disabled. nextOpen is BeginNet's spare buffer.
	open, nextOpen []graph.NodeID

	wireDemand []int32 // wire → unrouted pins that can only tap this wire
	spanDemand []int32 // span → unrouted pin taps wanting this span

	bounds *graph.CoordBounds // immutable node coordinates for goal-directed search

	// CongestionAlpha scales the congestion penalty applied to the
	// remaining wires of a partially used channel span: the weight of a
	// segment edge becomes base·(1 + α·used/W + …). Zero disables it.
	CongestionAlpha float64
	// DemandBeta scales the scarcity penalty on spans whose free wires are
	// nearly all reserved by pins of still-unrouted nets. This implements
	// the demand-driven congestion avoidance that keeps traversal routes
	// from walling off future pins (CGE routes "based on demand" the same
	// way).
	DemandBeta float64
	// DemandGamma penalizes individual wires tapped by unrouted pins, so a
	// passing route prefers demand-free wires of the same span.
	DemandGamma float64
}

// NewFabric builds the routing graph for the architecture.
func NewFabric(a Arch) (*Fabric, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{Arch: a, CongestionAlpha: 1.0, DemandBeta: 1.0, DemandGamma: 0.5}
	f.numSB = (a.Cols + 1) * (a.Rows + 1) * a.W
	f.hSpans = a.Cols * (a.Rows + 1)
	f.numSpans = f.hSpans + (a.Cols+1)*a.Rows
	numPins := a.Cols * a.Rows * 4 * a.PinsPerSide
	f.g = graph.New(f.numSB + numPins)
	// At most one wire per span and track, one jog per switch-block track
	// and 2·Fc taps per pin.
	maxEdges := f.numSpans*a.W + (a.Cols+1)*(a.Rows+1)*a.W + numPins*2*a.Fc
	f.edgeWire = make([]WireID, 0, maxEdges)
	f.baseW = make([]float64, 0, maxEdges)
	f.spanWire = make([]WireID, f.numSpans*a.W)
	f.spanUsed = make([]int32, f.numSpans)
	f.spanDemand = make([]int32, f.numSpans)

	addWireEdge := func(w WireID, u, v graph.NodeID, length float64) {
		id := f.g.AddEdge(u, v, length)
		f.edgeWire = append(f.edgeWire, w)
		f.baseW = append(f.baseW, length)
		if w != noWire {
			f.wireEdges[w] = append(f.wireEdges[w], id)
		}
	}
	// newWire allocates a wire covering the given spans on track t and
	// adds its single wire edge between the bounding switch blocks.
	newWire := func(spans []int32, t int, u, v graph.NodeID) {
		w := WireID(len(f.wireEdges))
		f.wireEdges = append(f.wireEdges, nil)
		f.wireSpans = append(f.wireSpans, spans)
		for _, s := range spans {
			f.spanWire[int(s)*a.W+t] = w
		}
		addWireEdge(w, u, v, SegmentLength*float64(len(spans)))
	}

	// Channel wires. Track t carries wires of length SegLen(t) channel
	// spans (1 = the classic single-length model): a length-L wire is one
	// edge between switch blocks L apart, and connection blocks tap it
	// only through its endpoints (like Xilinx double/long lines, which
	// skip intermediate switch blocks).
	for j := 0; j <= a.Rows; j++ { // horizontal channels
		for t := 0; t < a.W; t++ {
			l := a.SegLen(t)
			for i0 := 0; i0 < a.Cols; i0 += l {
				end := i0 + l
				if end > a.Cols {
					end = a.Cols
				}
				spans := make([]int32, 0, end-i0)
				for i := i0; i < end; i++ {
					spans = append(spans, int32(f.hSpan(i, j)))
				}
				newWire(spans, t, f.sbNode(i0, j, t), f.sbNode(end, j, t))
			}
		}
	}
	for i := 0; i <= a.Cols; i++ { // vertical channels
		for t := 0; t < a.W; t++ {
			l := a.SegLen(t)
			for j0 := 0; j0 < a.Rows; j0 += l {
				end := j0 + l
				if end > a.Rows {
					end = a.Rows
				}
				spans := make([]int32, 0, end-j0)
				for j := j0; j < end; j++ {
					spans = append(spans, int32(f.vSpan(i, j)))
				}
				newWire(spans, t, f.sbNode(i, j0, t), f.sbNode(i, end, t))
			}
		}
	}
	f.claimed = make([]bool, len(f.wireEdges))
	f.wireDemand = make([]int32, len(f.wireEdges))

	// Extra switch-block flexibility (Fs = 6): jogs between neighbouring
	// tracks inside each switch block. The disjoint Fs = 3 pattern is
	// already encoded by sharing one node per (switch block, track).
	if a.Fs == 6 && a.W > 1 {
		for j := 0; j <= a.Rows; j++ {
			for i := 0; i <= a.Cols; i++ {
				for t := 0; t < a.W; t++ {
					u := (t + 1) % a.W
					if u == t || (a.W == 2 && t == 1) {
						continue // avoid self-loops and duplicate pair on W=2
					}
					addWireEdge(noWire, f.sbNode(i, j, t), f.sbNode(i, j, u), JogLength)
				}
			}
		}
	}

	// Connection blocks: each pin taps Fc of the W tracks of its adjacent
	// channel span, reaching both switch blocks bounding the span. They
	// are the last edges added, so each switch-block node's arcs into pins
	// form the trailing run of its CSR arcs that SetPinBoundary lets the
	// searches skip.
	f.taps = make([]graph.EdgeID, numPins*2*a.Fc)
	f.tapWires = make([]WireID, numPins*a.Fc)
	pinOrdinal := 0
	for y := 0; y < a.Rows; y++ {
		for x := 0; x < a.Cols; x++ {
			for _, side := range []Side{North, East, South, West} {
				for k := 0; k < a.PinsPerSide; k++ {
					pin := Pin{X: x, Y: y, Side: side, Index: k}
					pn := f.PinNode(pin)
					span, _, _ := f.pinSpan(pin)
					taps, wires := f.pinTaps(pn), f.pinWires(pn)
					for c := 0; c < a.Fc; c++ {
						t := (pinOrdinal + c*a.W/a.Fc) % a.W
						w := f.spanWire[span*a.W+t]
						// The tap reaches the wire at this span's middle;
						// leaving through either wire end costs the
						// intra-wire distance plus the half-span tap.
						pos := 0
						for idx, s := range f.wireSpans[w] {
							if int(s) == span {
								pos = idx
								break
							}
						}
						wireEdge := f.g.Edge(f.wireEdges[w][0])
						lenA := SegmentLength*float64(pos) + TapLength
						lenB := SegmentLength*float64(len(f.wireSpans[w])-1-pos) + TapLength
						first := graph.EdgeID(f.g.NumEdges())
						addWireEdge(w, pn, wireEdge.U, lenA)
						addWireEdge(w, pn, wireEdge.V, lenB)
						taps[2*c], taps[2*c+1] = first, first+1
						wires[c] = w
					}
					pinOrdinal++
				}
			}
		}
	}
	// The edge set is final from here on (routing only toggles enables and
	// reweights); freezing now means the CSR layout is built once and never
	// lazily rebuilt under concurrent read-only scans.
	f.g.SetPinBoundary(graph.NodeID(f.numSB))
	f.g.Freeze()
	f.openAllPins()
	f.buildBounds()
	return f, nil
}

// pinTaps returns pin node pn's 2·Fc tap edges: for each of its Fc wires,
// the taps toward the wire's two ends, side by side.
func (f *Fabric) pinTaps(pn graph.NodeID) []graph.EdgeID {
	i := (int(pn) - f.numSB) * 2 * f.Fc
	return f.taps[i : i+2*f.Fc]
}

// pinWires returns the Fc wires pin node pn taps.
func (f *Fabric) pinWires(pn graph.NodeID) []WireID {
	i := (int(pn) - f.numSB) * f.Fc
	return f.tapWires[i : i+f.Fc]
}

// openAllPins records every pin as open: its taps may be enabled, as they
// all are after NewFabric and Reset.
func (f *Fabric) openAllPins() {
	f.open = f.open[:0]
	for v := f.numSB; v < f.g.NumNodes(); v++ {
		f.open = append(f.open, graph.NodeID(v))
	}
}

// buildBounds assigns every routing node its physical coordinate: switch
// block (i, j) sits at grid intersection (i, j), and a pin sits at the
// midpoint of its adjacent channel span — which makes the tap edge lengths
// (pos + TapLength to the wire ends) exactly the coordinate displacement,
// and segment edges of L spans cost exactly L. Congestion and demand only
// scale weights up from those base lengths and jogs cost more than their
// zero displacement, so the Manhattan distance between coordinates is an
// admissible, consistent lower bound under every fabric mutation
// (BeginNet/CommitNet/AddPinDemand/Reset). See DESIGN.md §6.
func (f *Fabric) buildBounds() {
	n := f.g.NumNodes()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for v := 0; v < f.numSB; v++ {
		i, j, _, _ := f.SBCoords(graph.NodeID(v))
		xs[v], ys[v] = float64(i), float64(j)
	}
	for v := f.numSB; v < n; v++ {
		p, _ := f.PinOf(graph.NodeID(v))
		switch p.Side {
		case South:
			xs[v], ys[v] = float64(p.X)+0.5, float64(p.Y)
		case North:
			xs[v], ys[v] = float64(p.X)+0.5, float64(p.Y)+1
		case West:
			xs[v], ys[v] = float64(p.X), float64(p.Y)+0.5
		case East:
			xs[v], ys[v] = float64(p.X)+1, float64(p.Y)+0.5
		}
	}
	f.bounds = &graph.CoordBounds{X: xs, Y: ys}
}

// Bounds returns the fabric's admissible distance lower bound for
// goal-directed search. The returned value is immutable and safe to share
// across concurrent searches and SPTCache forks.
func (f *Fabric) Bounds() *graph.CoordBounds { return f.bounds }

// sbNode returns the node for track t at switch block (i, j).
func (f *Fabric) sbNode(i, j, t int) graph.NodeID {
	return graph.NodeID((j*(f.Cols+1)+i)*f.W + t)
}

// hSpan returns the span index of the horizontal channel span between
// switch blocks (i, j) and (i+1, j).
func (f *Fabric) hSpan(i, j int) int { return j*f.Cols + i }

// vSpan returns the span index of the vertical channel span between switch
// blocks (i, j) and (i, j+1).
func (f *Fabric) vSpan(i, j int) int { return f.hSpans + j*(f.Cols+1) + i }

// wireOf returns the wire covering track t of a span.
func (f *Fabric) wireOf(span, t int) WireID { return f.spanWire[span*f.W+t] }

// pinSpan returns the channel span adjacent to a pin and the track-0 nodes
// of the two switch blocks bounding it.
func (f *Fabric) pinSpan(p Pin) (span int, sbA, sbB graph.NodeID) {
	switch p.Side {
	case South:
		return f.hSpan(p.X, p.Y), f.sbNode(p.X, p.Y, 0), f.sbNode(p.X+1, p.Y, 0)
	case North:
		return f.hSpan(p.X, p.Y+1), f.sbNode(p.X, p.Y+1, 0), f.sbNode(p.X+1, p.Y+1, 0)
	case West:
		return f.vSpan(p.X, p.Y), f.sbNode(p.X, p.Y, 0), f.sbNode(p.X, p.Y+1, 0)
	case East:
		return f.vSpan(p.X+1, p.Y), f.sbNode(p.X+1, p.Y, 0), f.sbNode(p.X+1, p.Y+1, 0)
	}
	panic(fmt.Sprintf("fpga: bad side %v", p.Side))
}

// PinNode returns the routing-graph node of a logic block pin.
func (f *Fabric) PinNode(p Pin) graph.NodeID {
	if p.X < 0 || p.X >= f.Cols || p.Y < 0 || p.Y >= f.Rows ||
		p.Side < North || p.Side > West || p.Index < 0 || p.Index >= f.PinsPerSide {
		panic(fmt.Sprintf("fpga: pin %v out of range", p))
	}
	idx := ((p.Y*f.Cols+p.X)*4+int(p.Side))*f.PinsPerSide + p.Index
	return graph.NodeID(f.numSB + idx)
}

// Graph exposes the routing graph (shared, mutable — the router commits
// nets through CommitNet, not by touching the graph directly).
func (f *Fabric) Graph() *graph.Graph { return f.g }

// NumWires returns the number of physical channel wires.
func (f *Fabric) NumWires() int { return len(f.wireEdges) }

// WireOfEdge returns the wire owning edge id, or -1 for switch-block jogs.
func (f *Fabric) WireOfEdge(id graph.EdgeID) WireID { return f.edgeWire[id] }

// PinNodeRange returns the half-open node ID range [lo, hi) holding all
// logic-block pin nodes; every node below lo is a switch-block/track node.
// The pathfinder uses this to block foreign pins without mutating enables.
func (f *Fabric) PinNodeRange() (lo, hi graph.NodeID) {
	return graph.NodeID(f.numSB), graph.NodeID(f.g.NumNodes())
}

// SBCandidates returns the switch-block/track nodes within the inclusive
// switch-block bounding box [minX, maxX]×[minY, maxY] (clipped to the
// fabric), the Steiner-candidate pool used by the router's iterated
// constructions.
func (f *Fabric) SBCandidates(minX, maxX, minY, maxY int) []graph.NodeID {
	clip := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	minX, maxX = clip(minX, 0, f.Cols), clip(maxX, 0, f.Cols)
	minY, maxY = clip(minY, 0, f.Rows), clip(maxY, 0, f.Rows)
	var out []graph.NodeID
	for j := minY; j <= maxY; j++ {
		for i := minX; i <= maxX; i++ {
			for t := 0; t < f.W; t++ {
				out = append(out, f.sbNode(i, j, t))
			}
		}
	}
	return out
}

// SteinerPool returns the Steiner-candidate switch-block nodes inside the
// pins' bounding box plus a margin, deterministically stride-subsampled to
// at most maxPool nodes (quality changes marginally, runtime linearly).
// Both the sequential router and the pathfinder derive their per-net pools
// from this one function so the two modes evaluate identical candidates.
func (f *Fabric) SteinerPool(pins []Pin, margin, maxPool int) []graph.NodeID {
	minX, minY := f.Cols, f.Rows
	maxX, maxY := 0, 0
	for _, p := range pins {
		if p.X < minX {
			minX = p.X
		}
		if p.X+1 > maxX {
			maxX = p.X + 1
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y+1 > maxY {
			maxY = p.Y + 1
		}
	}
	pool := f.SBCandidates(minX-margin, maxX+margin, minY-margin, maxY+margin)
	if maxPool > 0 && len(pool) > maxPool {
		stride := (len(pool) + maxPool - 1) / maxPool
		sub := make([]graph.NodeID, 0, maxPool)
		for i := 0; i < len(pool); i += stride {
			sub = append(sub, pool[i])
		}
		pool = sub
	}
	return pool
}

// SBCoords inverts sbNode for switch-block/track nodes; ok is false for pin
// nodes.
func (f *Fabric) SBCoords(v graph.NodeID) (i, j, t int, ok bool) {
	if int(v) >= f.numSB {
		return 0, 0, 0, false
	}
	t = int(v) % f.W
	sb := int(v) / f.W
	return sb % (f.Cols + 1), sb / (f.Cols + 1), t, true
}

// PinOf inverts PinNode; ok is false for switch-block nodes.
func (f *Fabric) PinOf(v graph.NodeID) (Pin, bool) {
	idx := int(v) - f.numSB
	if idx < 0 || idx >= f.Cols*f.Rows*4*f.PinsPerSide {
		return Pin{}, false
	}
	k := idx % f.PinsPerSide
	idx /= f.PinsPerSide
	side := Side(idx % 4)
	idx /= 4
	return Pin{X: idx % f.Cols, Y: idx / f.Cols, Side: side, Index: k}, true
}

// BeginNet prepares the fabric for routing one net: the tap edges of every
// logic-block pin NOT in pins are disabled, so routes cannot pass through
// unrelated pins (a pin is not a routing switch — only the net's own
// terminals may fan out through their connection blocks). Tap edges of the
// net's pins are enabled unless their wire is already claimed.
//
// Only taps that may be enabled are touched: those of the pins the last
// call opened, which it now closes, and the new net's. CommitNet only ever
// disables edges, so every other pin's taps are still disabled. After
// NewFabric and Reset every pin counts as open, which makes the first call
// a pass over all pins.
func (f *Fabric) BeginNet(pins []Pin) {
	next := f.nextOpen[:0]
	for _, p := range pins {
		next = append(next, f.PinNode(p))
	}
	for _, pn := range f.open {
		for _, e := range f.pinTaps(pn) {
			f.g.SetEnabled(e, false)
		}
	}
	for _, pn := range next {
		for _, e := range f.pinTaps(pn) {
			f.g.SetEnabled(e, !f.claimed[f.edgeWire[e]])
		}
	}
	f.open, f.nextOpen = next, f.open
}

// CommitNet commits a routed tree: every wire touched by the tree is
// claimed (all of its edges disabled, so later nets stay electrically
// disjoint), every non-wire edge used is disabled, and congestion weights
// of the affected spans are refreshed. It returns the claimed wires.
func (f *Fabric) CommitNet(t graph.Tree) []WireID {
	var wires []WireID
	touchedSpans := map[int32]bool{}
	for _, id := range t.Edges {
		w := f.edgeWire[id]
		if w == noWire {
			f.g.SetEnabled(id, false)
			continue
		}
		if !f.claimed[w] {
			f.claimed[w] = true
			wires = append(wires, w)
			for _, s := range f.wireSpans[w] {
				f.spanUsed[s]++
				touchedSpans[s] = true
			}
			for _, e := range f.wireEdges[w] {
				f.g.SetEnabled(e, false)
			}
		}
	}
	for span := range touchedSpans {
		f.refreshSpanWeights(int(span))
	}
	return wires
}

// AddPinDemand registers (delta = +1) or releases (delta = -1) a pin of an
// unrouted net: its tap wires and span are marked as demanded, and the
// span's weights refreshed. The router registers every pin at pass start
// and releases a net's pins just before routing it.
func (f *Fabric) AddPinDemand(p Pin, delta int32) {
	pn := f.PinNode(p)
	span, _, _ := f.pinSpan(p)
	for _, w := range f.pinWires(pn) {
		f.wireDemand[w] += delta
	}
	f.spanDemand[span] += delta
	f.refreshSpanWeights(span)
}

// spanFactor computes the congestion+scarcity term of one span:
// α·used/W plus the β-scaled scarcity that grows as the span's free wires
// are used up relative to the demand registered by unrouted pins.
func (f *Fabric) spanFactor(span int32) float64 {
	used := f.spanUsed[span]
	factor := f.CongestionAlpha * float64(used) / float64(f.W)
	if need := f.spanDemand[span]; need > 0 && f.DemandBeta > 0 {
		slack := int32(f.W) - used
		var scarcity float64
		if slack <= need {
			scarcity = 2 * float64(need-slack+1)
		} else {
			scarcity = 0.25 * float64(need) / float64(slack-need)
		}
		factor += f.DemandBeta * scarcity
	}
	return factor
}

// refreshSpanWeights reapplies the congestion formula to the still-enabled
// edges of the wires covering a span:
//
//	weight = base · (1 + max over covered spans of spanFactor + γ·wireDemand)
//
// Multi-span (segmented) wires take the worst factor over the spans they
// cross, so a long line through a congested region is avoided whole.
func (f *Fabric) refreshSpanWeights(span int) {
	for t := 0; t < f.W; t++ {
		w := f.wireOf(span, t)
		if f.claimed[w] {
			continue
		}
		worst := 0.0
		for _, s := range f.wireSpans[w] {
			if sf := f.spanFactor(s); sf > worst {
				worst = sf
			}
		}
		wf := 1 + worst + f.DemandGamma*float64(f.wireDemand[w])
		for _, e := range f.wireEdges[w] {
			f.g.SetWeight(e, f.baseW[e]*wf)
		}
	}
}

// Reset rips up all committed nets: re-enables every edge, restores base
// weights and clears all claims and registered pin demand.
func (f *Fabric) Reset() {
	for i := range f.claimed {
		f.claimed[i] = false
	}
	for i := range f.spanUsed {
		f.spanUsed[i] = 0
	}
	for i := range f.wireDemand {
		f.wireDemand[i] = 0
	}
	for i := range f.spanDemand {
		f.spanDemand[i] = 0
	}
	for id := 0; id < f.g.NumEdges(); id++ {
		f.g.SetEnabled(graph.EdgeID(id), true)
		f.g.SetWeight(graph.EdgeID(id), f.baseW[id])
	}
	f.openAllPins()
}

// BaseWirelength returns the uncongested wirelength of a routed tree (the
// metric reported in Table 5), i.e. the sum of base edge lengths.
func (f *Fabric) BaseWirelength(t graph.Tree) float64 {
	total := 0.0
	for _, id := range t.Edges {
		total += f.baseW[id]
	}
	return total
}

// MaxPathlength returns the maximum, over sinks, of the tree-path length
// from src measured in base (uncongested) wirelength — the critical-path
// metric of Table 5. It panics if a sink is not spanned by the tree.
func (f *Fabric) MaxPathlength(t graph.Tree, src graph.NodeID, sinks []graph.NodeID) float64 {
	adj := make(map[graph.NodeID][]graph.Arc, 2*len(t.Edges))
	for _, id := range t.Edges {
		e := f.g.Edge(id)
		adj[e.U] = append(adj[e.U], graph.Arc{To: e.V, ID: id})
		adj[e.V] = append(adj[e.V], graph.Arc{To: e.U, ID: id})
	}
	dist := map[graph.NodeID]float64{src: 0}
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if _, ok := dist[a.To]; ok {
				continue
			}
			dist[a.To] = dist[u] + f.baseW[a.ID]
			stack = append(stack, a.To)
		}
	}
	maxd := 0.0
	for _, s := range sinks {
		d, ok := dist[s]
		if !ok {
			panic(fmt.Sprintf("fpga: sink %d not spanned by tree", s))
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// HSpanIndex returns the span index of the horizontal channel span between
// switch blocks (i, j) and (i+1, j), for renderers and diagnostics.
func (f *Fabric) HSpanIndex(i, j int) int { return f.hSpan(i, j) }

// VSpanIndex returns the span index of the vertical channel span between
// switch blocks (i, j) and (i, j+1).
func (f *Fabric) VSpanIndex(i, j int) int { return f.vSpan(i, j) }

// SpanUtilization returns how many wires of each span are claimed.
func (f *Fabric) SpanUtilization() []int32 {
	return append([]int32(nil), f.spanUsed...)
}

// MaxSpanUtilization returns the maximum number of claimed wires over all
// spans — the effective channel width the committed routing requires.
func (f *Fabric) MaxSpanUtilization() int {
	m := int32(0)
	for _, u := range f.spanUsed {
		if u > m {
			m = u
		}
	}
	return int(m)
}
