package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/core"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/journal"
	"fpgarouter/internal/pathfinder"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// probeInput is the set of circuits the layer probes run on: the
// workload's own circuits at their paper widths.
type probeInput struct {
	names  []string
	seeds  []int64
	ckts   []*circuits.Circuit
	widths []int
}

// Replay sizes: how many nets per circuit the graph and core probes replay
// (evenly spaced over the net list), and how many sources per net the
// graph probe searches from.
const (
	graphNetsPerCircuit = 40
	graphSourcesPerNet  = 4
	coreNetsPerCircuit  = 12
	journalProbeAppends = 60
	routerBBoxMargin    = 2    // router.Options default
	routerMaxPool       = 1024 // the router's candidate-pool cap
	pathfinderMaxIters  = 96   // router.Options default in parallel mode
)

// probeLayers times each layer through its public API on the workload's
// circuits and sets the per-layer metrics that do not come from the
// workload's own traced pass.
func probeLayers(out io.Writer, m *metrics, t *tally, tr *tracer, in probeInput) error {
	if err := probeSynthesis(m, tr, in); err != nil {
		return err
	}
	if err := probeGraph(m, tr, in); err != nil {
		return err
	}
	if err := probeCore(m, t, tr, in); err != nil {
		return err
	}
	results := probeRouter(m, t, tr, in)
	probeMinWidth(m, t, tr, in)
	snaps, err := probePathfinder(out, m, t, tr, in)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := journal.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	if err := probeCheckpoint(m, tr, store, snaps); err != nil {
		return err
	}
	if err := probeJournal(m, tr, filepath.Join(dir, "journal.wal")); err != nil {
		return err
	}
	return probeStore(m, tr, store, results)
}

// strided returns at most n items of xs, evenly spaced.
func strided[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := range n {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// netStop returns a net's pin nodes and the stop set the router's per-net
// search settles: the pins plus the Steiner-candidate pool.
func netStop(fab *fpga.Fabric, net circuits.Net) (terms, pool, stop []graph.NodeID) {
	terms = make([]graph.NodeID, len(net.Pins))
	for i, p := range net.Pins {
		terms[i] = fab.PinNode(p)
	}
	pool = fab.SteinerPool(net.Pins, routerBBoxMargin, routerMaxPool)
	stop = append(append(stop, terms...), pool...)
	return terms, pool, stop
}

// probeSynthesis times circuits.Synthesize and fpga.NewFabric per circuit
// (median of a few repetitions), averaged over the circuits.
func probeSynthesis(m *metrics, tr *tracer, in probeInput) error {
	sp := tr.begin(0, "probe.synthesis", "")
	defer tr.end(sp)
	var synth, fabric []float64
	for i, ckt := range in.ckts {
		var s, f []float64
		for range 5 {
			t0 := time.Now()
			if _, err := circuits.Synthesize(ckt.Spec, in.seeds[i]); err != nil {
				return err
			}
			s = append(s, ms(time.Since(t0)))
		}
		for range 3 {
			t0 := time.Now()
			if _, err := fpga.NewFabric(ckt.ArchAt(in.widths[i])); err != nil {
				return err
			}
			f = append(f, ms(time.Since(t0)))
		}
		synth, fabric = append(synth, median(s)), append(fabric, median(f))
	}
	m.set("circuits.synthesize_ms", mean(synth))
	m.set("fpga.new_fabric_ms", mean(fabric))
	return nil
}

// probeGraph replays per-net stop-set searches on a fresh paper-width
// fabric: plain Dijkstra (DijkstraWithinScratch) and goal-directed A*
// (DijkstraWithinBounded) from each net's first pins to its pins plus
// candidate pool.
func probeGraph(m *metrics, tr *tracer, in probeInput) error {
	sp := tr.begin(0, "probe.graph", "")
	defer tr.end(sp)
	s := graph.NewDijkstraScratch()
	var dij, astar []float64
	var settledD, settledA int64
	md := startMem()
	for i, ckt := range in.ckts {
		fab, err := fpga.NewFabric(ckt.ArchAt(in.widths[i]))
		if err != nil {
			return err
		}
		g, b := fab.Graph(), fab.Bounds()
		for _, net := range strided(ckt.Nets, graphNetsPerCircuit) {
			fab.BeginNet(net.Pins)
			terms, _, stop := netStop(fab, net)
			for _, src := range terms[:min(len(terms), graphSourcesPerNet)] {
				s0 := s.Settled
				t0 := time.Now()
				spt := g.DijkstraWithinScratch(s, src, stop)
				dij = append(dij, us(time.Since(t0)))
				settledD += s.Settled - s0
				s.RecycleSPT(spt)

				s0 = s.Settled
				t0 = time.Now()
				spt = g.DijkstraWithinBounded(s, src, stop, b)
				astar = append(astar, us(time.Since(t0)))
				settledA += s.Settled - s0
				s.RecycleSPT(spt)
			}
		}
	}
	mallocs, _ := md.stop()
	n := float64(len(dij))
	m.set("graph.sssp_us", median(dij))
	m.set("graph.astar_us", median(astar))
	m.set("graph.settled_per_search", float64(settledD)/n)
	m.set("graph.astar_settled_per_search", float64(settledA)/n)
	m.set("graph.allocs_per_search", float64(mallocs)/(2*n))
	return nil
}

// probeCore runs the iterated construction the router uses (IGMST over KMB,
// batched admission, sequential scan) on replayed per-net caches.
func probeCore(m *metrics, t *tally, tr *tracer, in probeInput) error {
	sp := tr.begin(0, "probe.core", "")
	defer tr.end(sp)
	s := graph.NewDijkstraScratch()
	var times, evals, allocs []float64
	for i, ckt := range in.ckts {
		fab, err := fpga.NewFabric(ckt.ArchAt(in.widths[i]))
		if err != nil {
			return err
		}
		for _, net := range strided(ckt.Nets, coreNetsPerCircuit) {
			fab.BeginNet(net.Pins)
			terms, pool, stop := netStop(fab, net)
			t.attempt()
			md := startMem()
			t0 := time.Now()
			cache := graph.NewSPTCacheWithin(fab.Graph(), stop).WithScratch(s)
			_, st, err := core.IGMSTStats(cache, terms, steiner.KMB, core.Options{Candidates: pool, Batched: true, Workers: 1})
			cache.Release()
			d := time.Since(t0)
			n, _ := md.stop()
			if err != nil {
				t.fail("core: %s net %d: %v", in.names[i], net.ID, err)
				continue
			}
			times, evals, allocs = append(times, ms(d)), append(evals, float64(st.Evaluations)), append(allocs, float64(n))
		}
	}
	m.set("core.igmst_ms", mean(times))
	m.set("core.evaluations_per_net", mean(evals))
	m.set("core.allocs_per_net", mean(allocs))
	return nil
}

// probeRouter routes each circuit once with the sequential router under a
// stats collector, measuring allocations around each route, and checks
// every result.
func probeRouter(m *metrics, t *tally, tr *tracer, in probeInput) []*router.Result {
	sp := tr.begin(0, "probe.router", "")
	defer tr.end(sp)
	col := stats.New()
	ctx := router.NewContext(col)
	defer ctx.Close()
	var times, allocs, bytes []float64
	var results []*router.Result
	for i, ckt := range in.ckts {
		t.attempt()
		md := startMem()
		rs := tr.begin(sp, "probe.route", in.names[i])
		t0 := time.Now()
		res, err := router.RouteCtx(ctx, ckt, in.widths[i], router.Options{})
		d := time.Since(t0)
		tr.end(rs)
		n, by := md.stop()
		vs := tr.begin(sp, "probe.verify", in.names[i])
		if err == nil {
			err = checkResult(ckt, res)
		}
		tr.end(vs)
		if err != nil {
			t.fail("router probe %s: %v", in.names[i], err)
			continue
		}
		times, allocs, bytes = append(times, ms(d)), append(allocs, float64(n)), append(bytes, float64(by)/(1<<20))
		results = append(results, res)
	}
	snap := col.Snapshot()
	k := float64(len(in.ckts))
	m.set("router.route_ms", mean(times))
	m.set("router.allocs_per_route", mean(allocs))
	m.set("router.bytes_per_route", mean(bytes))
	m.set("router.sssp_runs", float64(snap.SSSPRuns)/k)
	m.set("router.heap_pushes", float64(snap.HeapPushes)/k)
	m.set("router.passes", float64(snap.Passes)/k)
	m.set("router.rip_ups", float64(snap.RipUps)/k)
	return results
}

// probeMinWidth runs the minimum-width search, as service minwidth jobs
// configure it, on the probe set's smallest circuit.
func probeMinWidth(m *metrics, t *tally, tr *tracer, in probeInput) {
	i := 0
	for k, ckt := range in.ckts {
		if len(ckt.Nets) < len(in.ckts[i].Nets) {
			i = k
		}
	}
	sp := tr.begin(0, "probe.minwidth", in.names[i])
	defer tr.end(sp)
	col := stats.New()
	ctx := router.NewContext(col)
	defer ctx.Close()
	t.attempt()
	t0 := time.Now()
	_, res, err := router.MinWidthCtx(ctx, in.ckts[i], in.widths[i], minwidthOptions)
	d := time.Since(t0)
	if err == nil {
		err = checkResult(in.ckts[i], res)
	}
	if err != nil {
		t.fail("minwidth probe %s: %v", in.names[i], err)
	}
	m.set("router.minwidth_ms", ms(d))
	m.set("router.width_probes", float64(col.Snapshot().WidthProbes))
}

// probePathfinder calls pathfinder.Route directly with the configuration
// router.Options{Parallel: true, IncrementalReroute: true} produces,
// timestamping iteration boundaries through the Cancel hook and keeping the
// checkpoints CheckpointFn receives.
func probePathfinder(out io.Writer, m *metrics, t *tally, tr *tracer, in probeInput) ([]*pathfinder.Checkpoint, error) {
	sp := tr.begin(0, "probe.pathfinder", "")
	defer tr.end(sp)
	var snaps []*pathfinder.Checkpoint
	var routeMs, iterMs, allocsPerIter []float64
	var iters, netRoutes, ripped, retained, skipped float64
	for i, ckt := range in.ckts {
		fab, err := fpga.NewFabric(ckt.ArchAt(in.widths[i]))
		if err != nil {
			return nil, err
		}
		col := stats.New()
		var stamps []time.Time
		cfg := pathfinder.Config{
			Algorithm:       pathfinder.AlgIKMB,
			MaxIters:        pathfinderMaxIters,
			BBoxMargin:      routerBBoxMargin,
			MaxPool:         routerMaxPool,
			Incremental:     true,
			Stats:           col,
			Cancel:          func() error { stamps = append(stamps, time.Now()); return nil },
			CheckpointFn:    func(ck *pathfinder.Checkpoint) { snaps = append(snaps, ck) },
			CheckpointEvery: checkpointEvery,
		}
		t.attempt()
		rs := tr.begin(sp, "pathfinder.route", in.names[i])
		md := startMem()
		t0 := time.Now()
		res, err := pathfinder.Route(fab, ckt.Nets, cfg)
		end := time.Now()
		n, _ := md.stop()
		tr.end(rs)
		if err != nil || !res.Converged {
			t.fail("pathfinder probe %s: converged=%v err=%v", in.names[i], res != nil && res.Converged, err)
			continue
		}
		stamps = append(stamps, end)
		for k := 1; k < len(stamps); k++ {
			iterMs = append(iterMs, ms(stamps[k].Sub(stamps[k-1])))
		}
		routeMs = append(routeMs, ms(end.Sub(t0)))
		allocsPerIter = append(allocsPerIter, float64(n)/float64(res.Iterations))
		iters += float64(res.Iterations)
		netRoutes += float64(res.NetRoutes)
		ripped += float64(res.EdgesRipped)
		retained += float64(res.EdgesRetained)
		skipped += float64(col.Snapshot().ReduceEdgesSkipped)
	}
	k := float64(len(in.ckts))
	m.set("pathfinder.route_ms", mean(routeMs))
	m.set("pathfinder.iter_ms_p50", median(iterMs))
	m.set("pathfinder.iter_ms_max", slices.Max(append(iterMs, 0)))
	m.set("pathfinder.iterations", iters/k)
	m.set("pathfinder.net_routes", netRoutes/k)
	m.set("pathfinder.edges_ripped", ripped/k)
	m.set("pathfinder.edges_retained", retained/k)
	m.set("pathfinder.retained_ratio", retained/max(ripped+retained, 1))
	m.set("pathfinder.reduce_edges_skipped", skipped/k)
	m.set("pathfinder.allocs_per_iter", mean(allocsPerIter))
	fmt.Fprintf(out, "pathfinder probe: %.0f iterations, retained/(ripped+retained) = %.0f/%.0f\n", iters, retained, ripped+retained)
	return snaps, nil
}

// probeCheckpoint encodes each snapshot the way the service persists it and
// files it in a result store.
func probeCheckpoint(m *metrics, tr *tracer, store *journal.Store, snaps []*pathfinder.Checkpoint) error {
	sp := tr.begin(0, "probe.checkpoint", "")
	defer tr.end(sp)
	var enc, put, kb []float64
	for i, ck := range snaps {
		t0 := time.Now()
		b, err := json.Marshal(ck)
		enc = append(enc, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("encode checkpoint: %w", err)
		}
		kb = append(kb, float64(len(b))/1024)
		t0 = time.Now()
		if err := store.Put(fmt.Sprintf("ckpt-%d", i), ck); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
	}
	m.set("checkpoint.encode_ms", mean(enc))
	m.set("checkpoint.put_ms", mean(put))
	m.set("checkpoint.kb", mean(kb))
	m.set("checkpoint.count", float64(len(snaps)))
	return nil
}

// probeJournal appends service-shaped records (submitted with its request,
// started, done) to a fresh journal with the default fsync.
func probeJournal(m *metrics, tr *tracer, path string) error {
	sp := tr.begin(0, "probe.journal", "")
	defer tr.end(sp)
	jr, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer jr.Close()
	request, err := json.Marshal(map[string]any{"mode": "route", "circuit": "term1", "seed": 2,
		"options": router.Options{Parallel: true, IncrementalReroute: true}})
	if err != nil {
		return err
	}
	events := []string{journal.EvSubmitted, journal.EvStarted, journal.EvDone}
	var lat []float64
	for i := range journalProbeAppends {
		rec := journal.Record{Event: events[i%3], JobID: fmt.Sprintf("job-%06d", i/3+1), Time: time.Now().UTC()}
		if rec.Event == journal.EvSubmitted {
			rec.Key, rec.Request = journal.Key(request, []byte(rec.JobID)), request
		}
		t0 := time.Now()
		if err := jr.Append(rec); err != nil {
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	_, tailV, _ := tail(lat)
	m.set("journal.append_us_p50", median(lat))
	m.set("journal.append_us_tail", tailV)
	return jr.Close()
}

// probeStore files each routed result in a result store and reads it back.
func probeStore(m *metrics, tr *tracer, store *journal.Store, results []*router.Result) error {
	sp := tr.begin(0, "probe.store", "")
	defer tr.end(sp)
	var put, get, kb []float64
	for i, res := range results {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		kb = append(kb, float64(len(b))/1024)
		key := fmt.Sprintf("result-%d", i)
		t0 := time.Now()
		if err := store.Put(key, res); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
		var back router.Result
		t0 = time.Now()
		ok, err := store.Get(key, &back)
		get = append(get, ms(time.Since(t0)))
		if err != nil || !ok || back.Wirelength != res.Wirelength {
			return fmt.Errorf("store round trip of result %d: found=%v err=%v", i, ok, err)
		}
	}
	m.set("store.put_ms", mean(put))
	m.set("store.get_ms", mean(get))
	m.set("store.result_kb", mean(kb))
	return nil
}
