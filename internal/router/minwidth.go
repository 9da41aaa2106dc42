// Minimum channel width search (the router's quality metric, Tables 2–4).
package router

import (
	"context"
	"errors"
	"fmt"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// MinWidth finds the smallest channel width at which the circuit routes
// completely: it grows the width from start until the first success, then
// walks downward while success persists. It returns the minimum width and
// the routing result at that width.
func MinWidth(ckt *circuits.Circuit, start int, opts Options) (int, *Result, error) {
	return MinWidthCtx(nil, ckt, start, opts)
}

// MinWidthContext is MinWidthCtx with cooperative cancellation: cc is
// checked before each width is routed and, inside each route, at its
// pass/net boundaries. The returned error matches both ErrCanceled and
// cc's cause under errors.Is.
//
// The search degrades gracefully: complete reports whether it ran to the
// true minimum. When interrupted, the returned width and Result are the
// best feasible width found so far (complete=false), or 0/nil if no width
// had routed yet. ctx may be nil; as in RouteContext it is bound to cc only
// for this call.
func MinWidthContext(cc context.Context, ctx *Context, ckt *circuits.Circuit, start int, opts Options) (w int, res *Result, complete bool, err error) {
	ctx, done := ensureContext(ctx)
	defer done()
	restore := ctx.bind(cc)
	defer restore()
	w, res, err = MinWidthCtx(ctx, ckt, start, opts)
	return w, res, err == nil, err
}

// MinWidthCtx is MinWidth with an explicit routing context (nil for an
// ephemeral one). It routes one width at a time, counting each route as a
// width probe in the context's collector; start < 1 selects 4.
//
// A run canceled during the shrink phase returns the best feasible width
// found so far alongside the error (matching ErrCanceled under errors.Is);
// one canceled before any width routed returns (0, nil, err).
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
