package router

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// goldenWorkFile holds busc's work counters under each engine.
var goldenWorkFile = filepath.Join("testdata", "golden_work.json")

// goldenWork is the part of a -stats snapshot that no worker count may
// move: the search work, the candidate scan's evaluations and admissions,
// and the engines' pass and rip-up counts. Timings, the parallel-scan
// line and the congestion histogram are left out.
type goldenWork struct {
	Mode                string `json:"mode"`
	SSSPRuns            int64  `json:"sssp_runs"`
	HeapPushes          int64  `json:"heap_pushes"`
	CandidateEvals      int64  `json:"candidate_evals"`
	Screened            int64  `json:"screened"`
	SteinerPoints       int64  `json:"steiner_points"`
	Passes              int64  `json:"passes"`
	PathfinderIters     int64  `json:"pathfinder_iterations"`
	IncrementalReroutes int64  `json:"incremental_reroutes"`
	EdgesRipped         int64  `json:"edges_ripped"`
	EdgesRetained       int64  `json:"edges_retained"`
}

func workOf(mode string, s stats.Snapshot) goldenWork {
	return goldenWork{
		Mode: mode, SSSPRuns: s.SSSPRuns, HeapPushes: s.HeapPushes,
		CandidateEvals: s.CandidateEvals, Screened: s.Screened, SteinerPoints: s.SteinerPoints,
		Passes: s.Passes, PathfinderIters: s.PathfinderIters, IncrementalReroutes: s.IncrementalReroutes,
		EdgesRipped: s.EdgesRipped, EdgesRetained: s.EdgesRetained,
	}
}

// TestGoldenWorkCountersParity pins the work counters that
// `fpgaroute -circuit busc -stats` prints under each engine, at one
// worker and at two (candidate workers and net workers alike): both runs
// must read the file's entry. TestGoldenRoutes proves a change leaves the
// routes alone; this test proves it leaves the searches and the scans
// alone too, or shows which counter it moved. A change that moves a
// counter on purpose regenerates the file with
//
//	go test ./internal/router -run TestGoldenWorkCountersParity -update
//
// and names the moved counters in CHANGES.md. Like the golden routes, the
// counters were recorded on amd64 and are compared there only.
func TestGoldenWorkCountersParity(t *testing.T) {
	if testing.Short() {
		t.Skip("routes busc four times")
	}
	if runtime.GOARCH != "amd64" && !*update {
		t.Skipf("golden counters are recorded on amd64, not %s", runtime.GOARCH)
	}
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	var got []goldenWork
	for _, m := range goldenModes {
		var first goldenWork
		for _, workers := range []int{1, 2} {
			opts := m.opts
			opts.CandidateWorkers, opts.NetWorkers = workers, workers
			col := stats.New()
			ctx := NewContext(col)
			_, err := RouteCtx(ctx, ckt, spec.PaperIKMB, opts)
			ctx.Close()
			if err != nil {
				t.Fatalf("busc/%s, %d workers: %v", m.name, workers, err)
			}
			w := workOf(m.name, col.Snapshot())
			if workers == 1 {
				first = w
				got = append(got, w)
			} else if w != first {
				t.Errorf("busc/%s: %d workers count\n %+v\none worker counts\n %+v", m.name, workers, w, first)
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWorkFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenWorkFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenWork
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenWorkFile, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test routes %d", goldenWorkFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("busc/%s work moved:\n got %+v\nwant %+v", got[i].Mode, got[i], want[i])
		}
	}
}
