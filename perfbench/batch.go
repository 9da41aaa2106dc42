package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// seed1Wirelength is each batch circuit's wirelength at workload seed 1, as
// EXPERIMENTS.md reports it (sequential table, and the incremental column of
// the pathfinder table).
var seed1Wirelength = map[bool]map[string]float64{
	false: {"busc": 1076.9, "dma": 2230.8, "term1": 507.5, "apex7": 683.0, "9symml": 583.0},
	true:  {"busc": 1045.6, "dma": 2201.4, "term1": 496.0, "apex7": 673.0, "9symml": 586.0},
}

// batch is seq-route or pathfinder-route: every circuit of batchCircuits
// routed once per suite at its paper width through router.Route, each
// result checked by checkResult.
type batch struct {
	cfg      runConfig
	parallel bool
	opts     router.Options
	names    []string
	seeds    []int64
	ckts     []*circuits.Circuit
	widths   []int
}

func newBatch(cfg runConfig, parallel bool) *batch {
	b := &batch{cfg: cfg, parallel: parallel, names: batchCircuits}
	if parallel {
		b.opts = router.Options{Parallel: true, IncrementalReroute: true}
	}
	if cfg.tiny {
		b.names = []string{"apex7"}
	}
	return b
}

// setup synthesizes the circuits and routes the warm-up circuit once.
func (b *batch) setup(t *tally) error {
	b.ckts, b.widths, b.seeds = nil, nil, nil
	for _, name := range b.names {
		s := batchSynthSeed(b.cfg.seed, name)
		ckt, w, err := synthesize(name, s)
		if err != nil {
			return err
		}
		b.ckts, b.widths, b.seeds = append(b.ckts, ckt), append(b.widths, w), append(b.seeds, s)
	}
	warm, w, err := synthesize(warmCircuit, warmSynthSeed)
	if err != nil {
		return err
	}
	t.attempt()
	res, err := router.Route(warm, w, b.opts)
	if err == nil {
		err = checkResult(warm, res)
	}
	if err != nil {
		t.fail("warm-up %s: %v", warmCircuit, err)
	}
	return nil
}

// suiteResult is one suite: every circuit routed and checked once.
type suiteResult struct {
	wall     time.Duration
	latMs    []float64 // per circuit: route plus check
	checkMs  []float64
	wl, mp   []float64 // per verified circuit
	passes   []int
	widthSum int
	verified int
}

// suite routes every circuit once.
func (b *batch) suite(tr *tracer, t *tally) suiteResult {
	var r suiteResult
	sp := tr.begin(0, "suite", "")
	start := time.Now()
	for i, ckt := range b.ckts {
		name := b.names[i]
		req := tr.begin(sp, "request", name)
		t0 := time.Now()
		rs := tr.begin(req, "route", name)
		res, err := router.Route(ckt, b.widths[i], b.opts)
		tr.end(rs)
		routed := time.Now()
		vs := tr.begin(req, "verify", name)
		t.attempt()
		switch {
		case err != nil:
			t.fail("%s: route: %v", name, err)
		case res.Width != b.widths[i]:
			t.fail("%s: routed at width %d, asked for %d", name, res.Width, b.widths[i])
		default:
			if err := checkResult(ckt, res); err != nil {
				t.fail("%s: check: %v", name, err)
				break
			}
			r.verified++
			r.wl, r.mp = append(r.wl, res.Wirelength), append(r.mp, res.MaxPathSum)
			r.passes = append(r.passes, res.Passes)
			r.widthSum += res.Width
		}
		tr.end(vs)
		end := time.Now()
		tr.end(req)
		r.checkMs = append(r.checkMs, ms(end.Sub(routed)))
		r.latMs = append(r.latMs, ms(end.Sub(t0)))
	}
	r.wall = time.Since(start)
	tr.end(sp)
	return r
}

// checkQuality checks that every suite repeated the first suite's
// per-circuit results exactly (the router is deterministic) and, at seed 1,
// that they match EXPERIMENTS.md.
func (b *batch) checkQuality(suites []suiteResult, t *tally) {
	first := suites[0]
	for _, r := range suites[1:] {
		if !slices.Equal(first.wl, r.wl) || !slices.Equal(first.mp, r.mp) || !slices.Equal(first.passes, r.passes) {
			t.fail("results differ between suites: wirelength %v vs %v", first.wl, r.wl)
		}
	}
	if b.cfg.seed != 1 || b.cfg.tiny || len(first.wl) != len(b.names) {
		return
	}
	for i, name := range b.names {
		if want := seed1Wirelength[b.parallel][name]; math.Round(first.wl[i]*10)/10 != want {
			t.fail("%s: seed-1 wirelength %.1f, EXPERIMENTS.md reports %.1f", name, first.wl[i], want)
		}
	}
}

// runUntraced measures the end-to-end metrics.
func (b *batch) runUntraced(out io.Writer, t *tally) (*metrics, error) {
	m := newMetrics(endToEnd)
	setup, err := timeSetup(func() error { return b.setup(t) }, nil)
	if err != nil {
		return nil, err
	}
	m.set("setup_s", setup)
	var suites []suiteResult
	start := time.Now()
	for len(suites) == 0 || time.Since(start).Seconds() < b.cfg.seconds {
		suites = append(suites, b.suite(nil, t))
	}
	loop := time.Since(start)
	b.checkQuality(suites, t)
	first := suites[0]
	walls := make([]float64, len(suites))
	var requestMs []float64
	verified := 0
	for i, s := range suites {
		walls[i] = s.wall.Seconds()
		verified += s.verified
		requestMs = append(requestMs, s.latMs...)
	}
	// suite_s adds up each circuit's median latency over the run's suites:
	// a slow stretch on a shared machine then moves one circuit's sample,
	// not a whole suite's.
	var suiteMs float64
	for i, name := range b.names {
		lat := make([]float64, len(suites))
		for k, s := range suites {
			lat[k] = s.latMs[i]
		}
		suiteMs += median(lat)
		if first.verified == len(b.names) {
			fmt.Fprintf(out, "circuit %-7s synth_seed=%-3d width=%-2d passes=%-3d wirelength=%.1f max_path=%.1f median_ms=%.1f\n",
				name, b.seeds[i], b.widths[i], first.passes[i], first.wl[i], first.mp[i], median(lat))
		}
	}
	fmt.Fprintf(out, "suites %d, wall samples %v s\n", len(suites), roundAll(walls, 3))
	m.set("suite_s", suiteMs/1000)
	m.set("request_ms_gmean", geomean(requestMs))
	m.set("jobs_per_s", float64(verified)/loop.Seconds())
	m.set("wirelength", sum(first.wl))
	m.set("max_path_sum", sum(first.mp))
	m.set("width_sum", float64(first.widthSum))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)
	return m, nil
}

// runTraced measures the per-layer metrics: one untraced and one traced
// suite (their difference is the tracing overhead), the layer probes on the
// same circuits, and one round of the service mix so the service, journal
// and store layers report on this workload too.
func (b *batch) runTraced(out io.Writer, m *metrics, t *tally, tr *tracer) error {
	if err := b.setup(t); err != nil {
		return err
	}
	plain := b.suite(nil, t)
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	traced := b.suite(tr, t)
	runtime.ReadMemStats(&gc1)
	b.checkQuality([]suiteResult{plain, traced}, t)
	m.set("trace.overhead_suite_s", traced.wall.Seconds()-plain.wall.Seconds())
	m.set("trace.overhead_job_ms", median(traced.latMs)-median(plain.latMs))
	m.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	m.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	m.set("verify.check_ms", mean(traced.checkMs))
	fmt.Fprintf(out, "untraced suite %.3f s, traced suite %.3f s\n", plain.wall.Seconds(), traced.wall.Seconds())

	if err := probeLayers(out, m, t, tr, probeInput{names: b.names, seeds: b.seeds, ckts: b.ckts, widths: b.widths}); err != nil {
		return err
	}
	_, err := newMixed(b.cfg).tracedRound(out, m, t, tr)
	return err
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// timeSetup runs setup setupReps times and returns the median wall time in
// seconds. A non-nil teardown undoes one set-up before the next; it runs
// between repetitions, outside the timing, so every repetition times the
// same work.
func timeSetup(setup, teardown func() error) (float64, error) {
	var xs []float64
	for i := range setupReps {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
