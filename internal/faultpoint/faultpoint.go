// Package faultpoint is the router's deterministic fault-injection
// harness: named fault points compiled into the hot paths (SSSP expansion,
// candidate-scan workers, pass boundaries, the service worker loop) that
// cost one atomic load when disarmed and, in tests, can be armed to panic,
// inject an error, or delay on a chosen schedule of hits.
//
// Production never arms anything: the process-wide registry pointer stays
// nil and every Hit/Check call is a nil-check that returns immediately. A
// test arms a site with Arm (typically deferring Reset via t.Cleanup),
// drives the system, and asserts it degrades the way the fault-tolerance
// layer promises — the chaos suites in internal/service and internal/core
// are the intended consumers.
//
// Schedules are deterministic: a plan fires on the Nth hit, on every
// Every-th hit, or pseudo-randomly per hit from a seeded splitmix64
// sequence over the hit index — never from global randomness — so a failing
// chaos run replays exactly.
package faultpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names compiled into the hot paths. Each constant documents where the
// point sits and which actions the site supports; sites without an error
// return escalate an armed Error action to a panic (see Check).
const (
	// SSSPExpand fires at the start of every Dijkstra execution
	// (graph.dijkstraWith). Panic/Delay only.
	SSSPExpand = "graph/sssp-expand"
	// ScanWorker fires before each candidate evaluation inside a parallel
	// candidate-scan worker goroutine (core/scan.go). Panic/Delay only; a
	// panic here exercises the worker→caller panic funnel.
	ScanWorker = "core/scan-worker"
	// PassBoundary fires at the top of every rip-up/re-route pass
	// (router.routeOnFabric). All actions; an injected error surfaces from
	// Route with the best partial result so far.
	PassBoundary = "router/pass-boundary"
	// ServiceWorker fires at the top of every job attempt on a service
	// worker (internal/service). All actions; an injected error is
	// classified by the service's retry policy.
	ServiceWorker = "service/worker-loop"
	// PathfinderWorker fires before each net a pathfinder iteration worker
	// routes (internal/pathfinder). All actions; an injected error aborts
	// the route deterministically (lowest net index wins), a panic
	// exercises the worker→caller panic funnel.
	PathfinderWorker = "pathfinder/net-worker"
	// JournalAppend fires before each append (one record or a batch) is
	// written to the write-ahead journal (internal/journal). An injected
	// error simulates a full or failing disk: the journal degrades to
	// read-only and the service keeps running in-memory (chaos suite).
	JournalAppend = "journal/append"
	// JournalFsync fires before the fsync that seals an append's journal
	// records. An injected error exercises the same read-only degradation
	// after the data was written but not durably flushed.
	JournalFsync = "journal/fsync"
)

// Action selects what an armed point does when its schedule fires.
type Action int

const (
	// Panic raises panic(&Injected{Site: name}).
	Panic Action = iota
	// Error returns Plan.Err from Hit (sites without an error return
	// escalate to a panic via Check).
	Error
	// Delay sleeps Plan.Delay, then continues normally.
	Delay
)

// Plan describes when an armed point fires and what it does. Exactly one of
// Nth, Every, or Prob should be set; a zero plan never fires.
type Plan struct {
	Action Action
	// Err is the error injected by Action Error (required for that action).
	Err error
	// Delay is the sleep injected by Action Delay.
	Delay time.Duration

	// Nth fires on exactly the Nth hit of the point (1-based).
	Nth int64
	// Every fires on every Every-th hit (hit numbers Every, 2·Every, …).
	Every int64
	// Prob fires on each hit with this probability, decided by a
	// deterministic splitmix64 stream over (Seed, hit number).
	Prob float64
	// Seed seeds the Prob stream; two runs with equal seeds fire on the
	// same hit numbers.
	Seed uint64
	// Times caps the total number of fires (0 = unlimited).
	Times int64
}

// fires reports whether the plan triggers on 1-based hit number n.
func (p Plan) fires(n int64) bool {
	switch {
	case p.Nth > 0:
		return n == p.Nth
	case p.Every > 0:
		return n%p.Every == 0
	case p.Prob > 0:
		return unitFloat(splitmix64(p.Seed+uint64(n))) < p.Prob
	}
	return false
}

// point is one armed site: its plan plus hit/fire accounting.
type point struct {
	plan  Plan
	hits  atomic.Int64
	fired atomic.Int64
}

// registry holds every armed point. The whole registry is swapped
// atomically so the disarmed fast path is a single pointer load.
type registry struct {
	mu     sync.RWMutex
	points map[string]*point
}

var active atomic.Pointer[registry]

// Injected is the value raised by an armed Panic action (and by Check when
// an Error action fires at a site that cannot propagate errors).
type Injected struct {
	Site string
	Err  error // non-nil only when escalated from an Error action
}

func (i *Injected) Error() string {
	if i.Err != nil {
		return fmt.Sprintf("faultpoint: injected at %s: %v", i.Site, i.Err)
	}
	return fmt.Sprintf("faultpoint: injected panic at %s", i.Site)
}

// GoroutinePanic carries a panic recovered on a helper goroutine (a
// candidate-scan worker, a pathfinder net worker) to the goroutine that
// owns the work, where it is re-raised. Stack is the helper goroutine's
// stack at the original panic site, which the re-raise would otherwise
// lose; the service's panic isolation surfaces it on failed jobs.
type GoroutinePanic struct {
	Value any
	Stack []byte
}

func (g *GoroutinePanic) String() string {
	return fmt.Sprintf("panic on helper goroutine: %v", g.Value)
}

// Arm installs (or replaces) the plan for a named site, creating the
// registry if this is the first armed point. Tests pair it with a deferred
// Reset.
func Arm(name string, p Plan) {
	r := active.Load()
	if r == nil {
		r = &registry{points: make(map[string]*point)}
		if !active.CompareAndSwap(nil, r) {
			r = active.Load()
		}
	}
	r.mu.Lock()
	r.points[name] = &point{plan: p}
	r.mu.Unlock()
}

// Disarm removes one site's plan, leaving other armed points in place.
func Disarm(name string) {
	if r := active.Load(); r != nil {
		r.mu.Lock()
		delete(r.points, name)
		r.mu.Unlock()
	}
}

// Reset disarms every point and restores the production nil registry.
func Reset() { active.Store(nil) }

// Hits returns how many times the named point was evaluated since it was
// armed (0 if not armed).
func Hits(name string) int64 {
	if pt := find(name); pt != nil {
		return pt.hits.Load()
	}
	return 0
}

// Fired returns how many times the named point actually triggered its
// action (0 if not armed).
func Fired(name string) int64 {
	if pt := find(name); pt != nil {
		return pt.fired.Load()
	}
	return 0
}

func find(name string) *point {
	r := active.Load()
	if r == nil {
		return nil
	}
	r.mu.RLock()
	pt := r.points[name]
	r.mu.RUnlock()
	return pt
}

// Hit evaluates the named fault point: nil when disarmed or when the
// schedule does not fire, the armed error for an Error action, and it does
// not return at all for a Panic action. This is the form for sites that can
// propagate an error; sites that cannot should call Check.
func Hit(name string) error {
	r := active.Load()
	if r == nil {
		return nil // production fast path: one atomic load
	}
	r.mu.RLock()
	pt := r.points[name]
	r.mu.RUnlock()
	if pt == nil {
		return nil
	}
	n := pt.hits.Add(1)
	if !pt.plan.fires(n) {
		return nil
	}
	if pt.plan.Times > 0 {
		if f := pt.fired.Add(1); f > pt.plan.Times {
			pt.fired.Add(-1) // budget exhausted: this hit does not fire
			return nil
		}
	} else {
		pt.fired.Add(1)
	}
	switch pt.plan.Action {
	case Panic:
		panic(&Injected{Site: name})
	case Delay:
		time.Sleep(pt.plan.Delay)
		return nil
	default:
		return pt.plan.Err
	}
}

// Check is Hit for sites without an error return (SSSP expansion, scan
// workers): an armed Error action escalates to panic(&Injected) rather than
// being silently dropped.
func Check(name string) {
	if err := Hit(name); err != nil {
		panic(&Injected{Site: name, Err: err})
	}
}

// splitmix64 is the SplitMix64 mixing function: a tiny, well-distributed
// hash from a counter to 64 pseudo-random bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps 64 random bits to a float64 in [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / float64(uint64(1)<<53)
}
