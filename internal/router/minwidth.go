// Minimum channel width search (the router's quality metric, Tables 2–4).
package router

import (
	"errors"
	"fmt"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// MinWidthCtx finds the smallest channel width at which the circuit routes
// completely: it grows the width from start (start < 1 selects 4) until
// the first success, then walks downward while success persists, routing
// one width at a time under ctx (nil for an ephemeral context) and
// counting each route as a width probe in its collector. It returns the
// minimum width and the routing result at that width.
//
// A cancellation bound to ctx (Context.Bind) is checked before each width
// is routed and, inside each route, at its pass and per-net boundaries;
// the returned error then matches both ErrCanceled and the cause under
// errors.Is. The search degrades gracefully: it ran to the true minimum
// exactly when err is nil. When interrupted, the returned width and Result
// are the best feasible width found so far, or 0 and nil if no width had
// routed yet.
func MinWidthCtx(ctx *Context, ckt *circuits.Circuit, start int, opts Options) (int, *Result, error) {
	if err := opts.CheckAlgorithms(); err != nil {
		return 0, nil, err
	}
	ctx, done := ensureContext(ctx)
	defer done()
	if start < 1 {
		start = 4
	}
	probe := func(w int) (*Result, error) {
		if err := ctx.checkCanceled(); err != nil {
			return nil, err
		}
		ctx.Stats.Record(func(s *stats.Snapshot) { s.WidthProbes++ })
		return RouteCtx(ctx, ckt, w, opts)
	}
	w := start
	var lastGood *Result
	// Grow until routable.
	for {
		res, err := probe(w)
		if err == nil {
			lastGood = res
			break
		}
		if !errors.Is(err, ErrUnroutable) {
			return 0, nil, err
		}
		w++
		if w > 4*start+64 {
			return 0, nil, fmt.Errorf("router: %s unroutable up to width %d", ckt.Name, w)
		}
	}
	// Shrink while routable.
	for w > 1 {
		res, err := probe(w - 1)
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				break
			}
			if errors.Is(err, ErrCanceled) {
				// A feasible width is in hand, so an interruption
				// surrenders the refinement, not the answer.
				return w, lastGood, err
			}
			return 0, nil, err
		}
		w--
		lastGood = res
	}
	return w, lastGood, nil
}
