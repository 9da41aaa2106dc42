// Routing context: the explicit, reusable state threaded through every
// layer of a routing run in place of ambient per-call allocations. A
// Context owns a pooled graph.DijkstraScratch (heap, settled marks and
// recycled SPT buffers shared by every net routed under it) and an optional
// stats.Collector. One Context serves one goroutine at a time.
package router

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fpgarouter/internal/graph"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/stats"
)

// Context carries the reusable scratch state and observability hooks of a
// routing run. The zero value is not usable; create one with NewContext
// and Close it when done so the scratch returns to the process-wide pool.
// A nil *Context is accepted by every entry point (an ephemeral context
// is created for the call).
type Context struct {
	// Stats receives work counters when non-nil; leaving it nil makes every
	// recording site a no-op (see package stats).
	Stats *stats.Collector

	scratch *graph.DijkstraScratch
	// cc, when non-nil, is the cancellation signal checked cooperatively at
	// pass and per-net boundaries, and before each width probe of
	// MinWidthCtx. Bind sets it per run; nil means never canceled.
	cc context.Context
	// durable, when non-nil, enables pathfinder checkpoint/resume for
	// parallel-mode routes run under this context. It is plumbing, not wire
	// format: the service binds it per job (see Bind), keeping Options the
	// pure request shape.
	durable *DurableConfig
}

// DurableConfig carries the checkpoint/resume wiring of one durable job
// into the pathfinder. Only parallel-mode routes honor it; the service
// binds none for the sequential router or MinWidthCtx (their state is cheap
// to recompute, so recovery just restarts them).
type DurableConfig struct {
	// CheckpointEvery / CheckpointPeriod set the emission cadence (see
	// pathfinder.Config). CheckpointFn receives each snapshot.
	CheckpointEvery  int
	CheckpointPeriod time.Duration
	CheckpointFn     func(*pathfinder.Checkpoint)
	// Resume restarts the route from a prior snapshot.
	Resume *pathfinder.Checkpoint
}

// ErrCanceled reports that a routing run was abandoned because its
// context.Context was canceled or its deadline passed. Errors returned for
// canceled runs match both ErrCanceled and the underlying cause
// (context.Canceled or context.DeadlineExceeded) under errors.Is.
var ErrCanceled = errors.New("router: canceled")

// checkCanceled returns nil while the run may continue, or an error
// wrapping ErrCanceled and the context's cause once cancellation is
// requested. It is called at pass and per-net boundaries, and before each
// width probe — never inside a single-net construction, so pooled scratch
// is always quiescent when a run aborts.
func (ctx *Context) checkCanceled() error {
	if ctx == nil || ctx.cc == nil {
		return nil
	}
	if err := ctx.cc.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Bind attaches cc as the context's cancellation signal and dc (nil for
// none) as its checkpoint/resume wiring, returning a function that restores
// the previous binding. A worker binds its long-lived Context per job
// (defer ctx.Bind(cc, dc)()), keeping the pooled scratch across jobs.
func (ctx *Context) Bind(cc context.Context, dc *DurableConfig) (restore func()) {
	prevCC, prevDurable := ctx.cc, ctx.durable
	ctx.cc, ctx.durable = cc, dc
	return func() { ctx.cc, ctx.durable = prevCC, prevDurable }
}

// NewContext returns a routing context backed by a pooled Dijkstra scratch,
// recording into c (which may be nil for no stats).
func NewContext(c *stats.Collector) *Context {
	return &Context{Stats: c, scratch: graph.AcquireScratch()}
}

// Close releases the context's scratch back to the pool. The context (and
// any SPTCache still attached to its scratch) must not be used afterwards.
func (ctx *Context) Close() {
	if ctx != nil && ctx.scratch != nil {
		graph.ReleaseScratch(ctx.scratch)
		ctx.scratch = nil
	}
}

// Discard abandons the context without recycling its scratch: the
// fault-tolerance layer calls this instead of Close when a panic may have
// interrupted a routing run mid-flight, so possibly-inconsistent buffers
// never re-enter the process-wide pool. The service rebuilds a fresh
// context for the worker afterwards.
func (ctx *Context) Discard() {
	if ctx != nil && ctx.scratch != nil {
		graph.DiscardScratch(ctx.scratch)
		ctx.scratch = nil
	}
}

// ensureContext returns ctx, or an ephemeral context plus its cleanup when
// ctx is nil.
func ensureContext(ctx *Context) (*Context, func()) {
	if ctx != nil {
		return ctx, func() {}
	}
	c := NewContext(nil)
	return c, c.Close
}

// attach backs a per-net cache with the context's scratch.
func (ctx *Context) attach(cache *graph.SPTCache) *graph.SPTCache {
	return cache.WithScratch(ctx.scratch)
}
