package pathfinder

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"fpgarouter/internal/graph"
)

// This file is the checkpoint/resume machinery behind Config.CheckpointFn
// and Config.Resume: a Checkpoint captures the engine's complete
// deterministic state at an iteration boundary, and a resumed run restores
// it and continues bit-identically to the run that was interrupted.
//
// Why an iteration boundary is enough: between iterations the engine's
// state is exactly (iteration counter, history prices, the per-net trees,
// the next rip-up set, and the polish flags). Everything else is derived —
// usage is an integer recount over the trees, the shared price array is a
// pure function of hist/usage/presFac, presFac a pure function of the
// iteration number, and the delta bookkeeping's active set is
// reconstructible as every resource with non-zero usage or history
// (resources outside it provably price to zero, see incremental.go).
// Worker scratch is rebuilt per run and never part of the contract. The
// parity suite asserts that interrupting at any checkpoint boundary and
// resuming reproduces the uninterrupted run's trees, history trajectory,
// and counters bit for bit across Workers settings.
//
// Serialization: the struct is plain JSON. Go's encoding/json emits the
// shortest float64 representation that round-trips exactly, so history
// prices and tree costs survive a disk round trip bit-identically.

// Checkpoint is a serializable snapshot of a pathfinder run after
// Iteration completed iterations. Produce one via Config.CheckpointFn,
// resume from it via Config.Resume on a run with the same fabric, nets,
// and Config. Treat it as immutable: tree edge slices are shared with the
// engine (they are never mutated after construction, only replaced).
type Checkpoint struct {
	// Iteration is the number of completed iterations; a resumed run
	// continues at Iteration+1.
	Iteration int `json:"iteration"`
	// Polished and ForceSeq carry the polish-pass state machine across the
	// boundary.
	Polished bool `json:"polished,omitempty"`
	ForceSeq bool `json:"force_seq,omitempty"`
	// Hist is the per-resource history price array (the Lagrange
	// multipliers) after Iteration's sub-gradient update.
	Hist []float64 `json:"hist"`
	// Trees is every net's committed tree after Iteration.
	Trees []graph.Tree `json:"trees"`
	// Reroute is the contested set the next iteration will rip up.
	Reroute []int32 `json:"reroute"`
	// History is the per-iteration trajectory so far; restored so the
	// final Result matches the uninterrupted run's.
	History []IterStat `json:"history"`
	// Result accumulators (see Result): restored verbatim so the resumed
	// run's totals equal the uninterrupted run's.
	NetRoutes           int64 `json:"net_routes"`
	EdgesRipped         int64 `json:"edges_ripped,omitempty"`
	EdgesRetained       int64 `json:"edges_retained,omitempty"`
	IncrementalReroutes int64 `json:"incremental_reroutes,omitempty"`
	// Compatibility guards: a resume against a different circuit, fabric
	// or algorithm is rejected instead of silently producing garbage.
	// Incremental is always true; a false value marks a checkpoint of the
	// retired full-rip mode, whose state this engine cannot continue.
	Nets        int    `json:"nets"`
	Resources   int    `json:"resources"`
	Algorithm   string `json:"algorithm"`
	Incremental bool   `json:"incremental"`
}

// snapshot captures the engine state after iteration iter completed and
// the next rip-up set was chosen. Slices holding engine-mutated state
// (hist, the tree and history slice headers, the reused reroute buffer)
// are cloned; tree edge arrays are shared — they are immutable by the
// engine's build-fresh-replace-whole-tree discipline.
func (e *engine) snapshot(iter int, res *Result, reroute []int32, polished, forceSeq bool) *Checkpoint {
	return &Checkpoint{
		Iteration:           iter,
		Polished:            polished,
		ForceSeq:            forceSeq,
		Hist:                slices.Clone(e.hist),
		Trees:               slices.Clone(e.trees),
		Reroute:             slices.Clone(reroute),
		History:             slices.Clone(res.History),
		NetRoutes:           res.NetRoutes,
		EdgesRipped:         res.EdgesRipped,
		EdgesRetained:       res.EdgesRetained,
		IncrementalReroutes: res.IncrementalReroutes,
		Nets:                len(e.nets),
		Resources:           len(e.hist),
		Algorithm:           e.cfg.Algorithm,
		Incremental:         true,
	}
}

// maybeCheckpoint emits a snapshot to Config.CheckpointFn when the
// iteration cadence (CheckpointEvery, in absolute iteration numbers, so a
// resumed run keeps the original rhythm) or the wall-clock period
// (CheckpointPeriod) is due. Emission never alters engine state, so runs
// with and without checkpointing are bit-identical.
func (e *engine) maybeCheckpoint(iter int, res *Result, reroute []int32, polished, forceSeq bool) {
	fn := e.cfg.CheckpointFn
	if fn == nil {
		return
	}
	due := e.cfg.CheckpointEvery > 0 && iter%e.cfg.CheckpointEvery == 0
	if !due && e.cfg.CheckpointPeriod > 0 && time.Since(e.lastCkpt) >= e.cfg.CheckpointPeriod {
		due = true
	}
	if !due {
		return
	}
	e.lastCkpt = time.Now()
	fn(e.snapshot(iter, res, reroute, polished, forceSeq))
}

// ErrBadCheckpoint reports a checkpoint this run cannot resume from: one
// written for a different circuit, fabric, algorithm or rip-up mode, or
// whose contents cannot belong to any run (a tree edge or rip-up index out
// of range, a history price that is negative or not finite). Every restore
// rejection wraps it, so a caller can drop the checkpoint and start over.
var ErrBadCheckpoint = errors.New("pathfinder: bad checkpoint")

// checkContents validates everything restore and the resumed loop index
// by, before any engine state is touched, so a corrupt checkpoint returns
// an error wrapping ErrBadCheckpoint instead of panicking mid-restore.
func (e *engine) checkContents(ck *Checkpoint) error {
	for r, h := range ck.Hist {
		if !(h >= 0) || math.IsInf(h, 1) {
			return fmt.Errorf("%w: resource %d history price %v", ErrBadCheckpoint, r, h)
		}
	}
	for idx, tr := range ck.Trees {
		for _, id := range tr.Edges {
			if id < 0 || int(id) >= len(e.edgeRes) {
				return fmt.Errorf("%w: net %d tree edge %d out of range [0, %d)", ErrBadCheckpoint, idx, id, len(e.edgeRes))
			}
		}
	}
	for _, idx := range ck.Reroute {
		if idx < 0 || int(idx) >= len(e.nets) {
			return fmt.Errorf("%w: rip-up index %d out of range [0, %d)", ErrBadCheckpoint, idx, len(e.nets))
		}
	}
	return nil
}

// restore rebuilds the engine's iteration state from ck: history prices
// and trees verbatim, usage by an integer recount over the trees, the
// active set from the usage/history support, and the Result accumulators
// so final totals match the uninterrupted run.
func (e *engine) restore(ck *Checkpoint, res *Result) error {
	switch {
	case ck.Iteration < 1:
		return fmt.Errorf("%w: no completed iteration (%d)", ErrBadCheckpoint, ck.Iteration)
	case ck.Nets != len(e.nets) || len(ck.Trees) != len(e.nets):
		return fmt.Errorf("%w: covers %d nets (trees %d), run has %d", ErrBadCheckpoint, ck.Nets, len(ck.Trees), len(e.nets))
	case ck.Resources != len(e.hist) || len(ck.Hist) != len(e.hist):
		return fmt.Errorf("%w: covers %d resources (hist %d), fabric has %d", ErrBadCheckpoint, ck.Resources, len(ck.Hist), len(e.hist))
	case ck.Algorithm != e.cfg.Algorithm:
		return fmt.Errorf("%w: algorithm %q, run configured %q", ErrBadCheckpoint, ck.Algorithm, e.cfg.Algorithm)
	case !ck.Incremental:
		return fmt.Errorf("%w: written by the retired full-rip mode", ErrBadCheckpoint)
	case len(ck.History) != ck.Iteration:
		return fmt.Errorf("%w: history has %d entries for %d iterations", ErrBadCheckpoint, len(ck.History), ck.Iteration)
	}
	if err := e.checkContents(ck); err != nil {
		return err
	}
	copy(e.hist, ck.Hist)
	copy(e.trees, ck.Trees)
	clear(e.usage)
	for idx := range e.trees {
		e.ep++
		for _, id := range e.trees[idx].Edges {
			r := e.edgeRes[id]
			if e.resEp[r] == e.ep {
				continue
			}
			e.resEp[r] = e.ep
			e.usage[r]++
		}
	}
	// Reconstruct the active set from its support: every resource some
	// tree uses or with accumulated history. Activation order differs from
	// the original run, but only write order depends on it — the price
	// arrays and the ascending activeEdges index come out identical (see
	// the incremental.go invariants).
	for r := range e.usage {
		if e.usage[r] > 0 || e.hist[r] != 0 {
			e.activateRes(int32(r))
		}
	}
	res.Iterations = ck.Iteration
	res.History = slices.Clone(ck.History)
	res.NetRoutes = ck.NetRoutes
	res.EdgesRipped = ck.EdgesRipped
	res.EdgesRetained = ck.EdgesRetained
	res.IncrementalReroutes = ck.IncrementalReroutes
	return nil
}
