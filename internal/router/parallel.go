// Parallel routing mode: Options.Parallel routes every net concurrently
// through the negotiated-congestion engine of internal/pathfinder instead
// of the sequential rip-up/re-route loop, then commits the converged
// (mutually resource-disjoint) trees onto the fabric to produce the same
// Result shape — wire format, partial-result semantics, MinWidthCtx
// compatibility — as the sequential router.
package router

import (
	"errors"
	"fmt"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/steiner"
)

// routeParallel runs the pathfinder on a fresh fabric and assembles the
// router Result. A converged run commits every tree (they are disjoint by
// construction — zero overflow means no resource is shared). A run that
// exhausts the iteration budget returns ErrUnroutable with a partial
// Result committing only the uncontested nets, exactly the contract
// MinWidthCtx's probes rely on; cancellation and injected faults likewise
// surface the partial state alongside their error. Its options have
// passed CheckAlgorithms: the algorithm is ikmb or kmb, and no net is
// critical.
func routeParallel(ctx *Context, fab *fpga.Fabric, ckt *circuits.Circuit, opts Options) (*Result, error) {
	cfg := pathfinder.Config{
		Algorithm:  opts.Algorithm,
		Workers:    opts.NetWorkers,
		MaxIters:   opts.MaxPasses,
		BBoxMargin: opts.BBoxMargin,
		MaxPool:    maxPool,
		SingleStep: opts.SingleStep,
		Stats:      ctx.Stats,
		Cancel:     ctx.checkCanceled,
	}
	if dc := ctx.durable; dc != nil {
		cfg.CheckpointEvery = dc.CheckpointEvery
		cfg.CheckpointPeriod = dc.CheckpointPeriod
		cfg.CheckpointFn = dc.CheckpointFn
		cfg.Resume = dc.Resume
	}
	pres, perr := pathfinder.Route(fab, ckt.Nets, cfg)
	if pres == nil {
		return nil, perr
	}
	res := &Result{Width: fab.W, Passes: pres.Iterations, Nets: make([]NetResult, len(ckt.Nets))}
	failed := make(map[int]bool, len(pres.FailedNets))
	for _, idx := range pres.FailedNets {
		failed[idx] = true
	}
	routed := 0
	for idx := range ckt.Nets {
		tree := pres.Trees[idx]
		if failed[idx] || (len(tree.Edges) == 0 && len(ckt.Nets[idx].Pins) > 1) {
			continue
		}
		fab.CommitNet(tree)
		src := fab.PinNode(ckt.Nets[idx].Pins[0])
		sinks := pinNodes(fab, ckt.Nets[idx].Pins[1:])
		res.Nets[idx] = NetResult{
			Tree:       tree,
			Wirelength: fab.BaseWirelength(tree),
			MaxPath:    fab.MaxPathlength(tree, src, sinks),
		}
		routed++
	}
	if pres.Converged && perr == nil {
		res.Routed = true
		res.MaxUtil = fab.MaxSpanUtilization()
		for _, nr := range res.Nets {
			res.Wirelength += nr.Wirelength
			res.MaxPathSum += nr.MaxPath
		}
		if ctx.Stats.Enabled() {
			ctx.Stats.RecordCongestion(fab.SpanUtilization(), fab.W)
		}
		return res, nil
	}
	// Failure path: the same partial shape the sequential router returns.
	var failedList []int
	for idx := range ckt.Nets {
		if res.Nets[idx].Tree.Edges == nil {
			failedList = append(failedList, idx)
		}
	}
	partial := snapshotPartial(res, routed, failedList)
	if perr != nil {
		// A net whose pins cannot connect at this width even on an empty
		// fabric surfaces as ErrNoRoute; fold it into ErrUnroutable so
		// MinWidthCtx's bracket logic treats both modes alike.
		if errors.Is(perr, steiner.ErrNoRoute) {
			return partial, fmt.Errorf("%w: %v", ErrUnroutable, perr)
		}
		return partial, perr
	}
	return partial, fmt.Errorf("%w (width %d, %d contested nets after %d iterations, %d overflowed resources)",
		ErrUnroutable, fab.W, len(pres.FailedNets), pres.Iterations, pres.Overflow)
}
