package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// metricDef names a metric and its unit. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json lists the same names and
// units, and the smoke test checks that the two agree.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the router or of routed sees. Every
// workload reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"request_ms_gmean", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"wirelength", "tracks"},
	{"max_path_sum", "tracks"},
	{"width_sum", "tracks"},
}

// perLayer are the traced run's metrics: one group per module, each timed
// or counted around calls the benchmark makes into that module's public API.
var perLayer = []metricDef{
	{"circuits.synthesize_ms", "ms"},
	{"fpga.new_fabric_ms", "ms"},
	{"graph.sssp_us", "us"},
	{"graph.astar_us", "us"},
	{"graph.settled_per_search", "count"},
	{"graph.astar_settled_per_search", "count"},
	{"graph.allocs_per_search", "count"},
	{"router.sssp_runs", "count"},
	{"router.heap_pushes", "count"},
	{"core.igmst_ms", "ms"},
	{"core.evaluations_per_net", "count"},
	{"core.allocs_per_net", "count"},
	{"router.route_ms", "ms"},
	{"router.allocs_per_route", "count"},
	{"router.bytes_per_route", "MB"},
	{"router.passes", "count"},
	{"router.rip_ups", "count"},
	{"router.minwidth_ms", "ms"},
	{"router.width_probes", "count"},
	{"pathfinder.route_ms", "ms"},
	{"pathfinder.iter_ms_p50", "ms"},
	{"pathfinder.iter_ms_max", "ms"},
	{"pathfinder.iterations", "count"},
	{"pathfinder.net_routes", "count"},
	{"pathfinder.edges_ripped", "count"},
	{"pathfinder.edges_retained", "count"},
	{"pathfinder.retained_ratio", "ratio"},
	{"pathfinder.reduce_edges_skipped", "count"},
	{"pathfinder.allocs_per_iter", "count"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.put_ms", "ms"},
	{"checkpoint.kb", "KB"},
	{"checkpoint.count", "count"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_tail", "us"},
	{"journal.appends_per_job", "count"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.result_kb", "KB"},
	{"service.job_ms_p50", "ms"},
	{"service.job_ms_tail", "ms"},
	{"service.hit_ms_p50", "ms"},
	{"service.hit_ms_tail", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.client_overhead_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"verify.check_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.request_self_ms", "ms"},
	{"trace.route_self_ms", "ms"},
	{"trace.verify_self_ms", "ms"},
	{"trace.svc_request_self_ms", "ms"},
	{"trace.svc_submit_self_ms", "ms"},
	{"trace.svc_poll_self_ms", "ms"},
	{"trace.svc_fetch_self_ms", "ms"},
	{"trace.svc_verify_self_ms", "ms"},
	{"trace.overhead_suite_s", "s"},
	{"trace.overhead_job_ms", "ms"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result; its JSON form is the last line of
// standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted operations and failures across goroutines, and
// keeps the first few failure messages for standard error.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failed attempt.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// metrics collects one run's values and checks them against a table.
type metrics struct {
	defs   []metricDef
	values map[string]float64
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, values: map[string]float64{}}
}

// set records a metric; the name must be in the table.
func (m *metrics) set(name string, v float64) {
	if !slices.ContainsFunc(m.defs, func(d metricDef) bool { return d.name == name }) {
		panic("perfbench: metric not in table: " + name)
	}
	m.values[name] = v
}

// finish builds the report, failing if any metric of the table is missing
// or not a finite number. The verdict is pass when every attempt succeeded.
func (m *metrics) finish(t *tally) (*report, error) {
	rep := &report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep.Correct = t.failed == 0 && t.attempted > 0
	return rep, nil
}

// print writes one human-readable line per metric, then the JSON line.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	verdict := "FAIL"
	if r.Correct {
		verdict = "pass"
	}
	fmt.Fprintf(w, "correct: %s (attempted %d, failed %d, failed_frac %.4f)\n",
		verdict, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// --- sample statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must be positive (0 for
// none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var total float64
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// tail returns the highest whole percentile that has at least ten samples
// above it (nearest-rank), its value, and the sample count. With ten
// samples or fewer no percentile qualifies and the maximum is returned as
// percentile 100.
func tail(xs []float64) (pct int, v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 100, 0, 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n <= 10 {
		return 100, s[n-1], n
	}
	pct = 100 * (n - 10) / n
	rank := (pct*n + 99) / 100 // ceil(pct/100·n)
	return pct, s[max(rank, 1)-1], n
}

// memDelta measures allocations made between two points.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns the allocation count and bytes since start.
func (d *memDelta) stop() (mallocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - d.before.Mallocs, after.TotalAlloc - d.before.TotalAlloc
}

// machineFacts describes where the numbers came from.
func machineFacts(tmpDir string) string {
	fs := "unknown"
	if name, err := fsType(tmpDir); err == nil {
		fs = name
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s tmpdir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fs)
}

// describeTail formats a tail percentile for the human-readable output.
func describeTail(label string, xs []float64) string {
	pct, v, n := tail(xs)
	return fmt.Sprintf("%s: p%d = %.3f ms over %d samples", label, pct, v, n)
}
