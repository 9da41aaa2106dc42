package pathfinder

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

// The checkpoint/resume parity suite: a run interrupted at ANY checkpoint
// boundary and resumed — including through a JSON round trip, the on-disk
// path — must finish bit-identical to the uninterrupted run, at every
// Workers setting. This is the contract the service's crash recovery
// stands on.

// captureAll runs the fixture to completion while collecting a checkpoint
// at every iteration boundary, returning the checkpoints and the
// uninterrupted reference Result.
func captureAll(t *testing.T, cfg Config) ([]*Checkpoint, *Result) {
	t.Helper()
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	var cks []*Checkpoint
	cfg.CheckpointEvery = 1
	cfg.CheckpointFn = func(ck *Checkpoint) { cks = append(cks, ck) }
	res, err := Route(fab, ckt.Nets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("reference run did not converge")
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}
	// The final iteration converges and returns before the emission point,
	// so the last checkpoint covers an earlier iteration.
	if last := cks[len(cks)-1].Iteration; last >= res.Iterations {
		t.Fatalf("last checkpoint at iteration %d, run converged at %d", last, res.Iterations)
	}
	return cks, res
}

// assertSameResult compares every deterministic field of two Results bit
// for bit: trees (edges and float64 costs), the full per-iteration history,
// and all counters.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Overflow != want.Overflow {
		t.Fatalf("%s: (iters, converged, overflow) = (%d, %v, %d), want (%d, %v, %d)",
			label, got.Iterations, got.Converged, got.Overflow, want.Iterations, want.Converged, want.Overflow)
	}
	if got.NetRoutes != want.NetRoutes {
		t.Fatalf("%s: NetRoutes = %d, want %d", label, got.NetRoutes, want.NetRoutes)
	}
	if got.EdgesRipped != want.EdgesRipped || got.EdgesRetained != want.EdgesRetained ||
		got.IncrementalReroutes != want.IncrementalReroutes {
		t.Fatalf("%s: rip-up counters (%d, %d, %d), want (%d, %d, %d)", label,
			got.EdgesRipped, got.EdgesRetained, got.IncrementalReroutes,
			want.EdgesRipped, want.EdgesRetained, want.IncrementalReroutes)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history has %d entries, want %d", label, len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("%s: history[%d] = %+v, want %+v", label, i, got.History[i], want.History[i])
		}
	}
	if len(got.Trees) != len(want.Trees) {
		t.Fatalf("%s: %d trees, want %d", label, len(got.Trees), len(want.Trees))
	}
	for i := range want.Trees {
		if got.Trees[i].Cost != want.Trees[i].Cost || !reflect.DeepEqual(got.Trees[i].Edges, want.Trees[i].Edges) {
			t.Fatalf("%s: tree %d differs (cost %v vs %v)", label, i, got.Trees[i].Cost, want.Trees[i].Cost)
		}
	}
}

// TestCheckpointResumeParity: resume from every captured checkpoint, for
// Workers ∈ {1, 4}, and require the resumed Result bit-identical to the
// uninterrupted run. The checkpoint is pushed through a JSON round trip
// first — exactly what the service's on-disk checkpoint store does. The
// -inc rows set Config.Incremental, the field that once selected this mode
// and now has no effect; callers that still set it must capture and resume
// the same way.
func TestCheckpointResumeParity(t *testing.T) {
	spec := specNamed(t, "term1")
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"w1", Config{Workers: 1}},
		{"w4", Config{Workers: 4}},
		{"w1-inc", Config{Workers: 1, Incremental: true}},
		{"w4-inc", Config{Workers: 4, Incremental: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cks, want := captureAll(t, tc.cfg)
			// Every boundary is the real contract, but under -short (the CI
			// race matrix) resuming from every checkpoint is the suite's long
			// pole: sample first, middle, and last. The CI crash-recovery job
			// runs the exhaustive variant without -short.
			if testing.Short() && len(cks) > 3 {
				cks = []*Checkpoint{cks[0], cks[len(cks)/2], cks[len(cks)-1]}
			}
			for _, ck := range cks {
				data, err := json.Marshal(ck)
				if err != nil {
					t.Fatal(err)
				}
				restored := new(Checkpoint)
				if err := json.Unmarshal(data, restored); err != nil {
					t.Fatal(err)
				}
				fab, ckt := synth(t, spec, spec.PaperIKMB)
				cfg := tc.cfg
				cfg.Resume = restored
				got, err := Route(fab, ckt.Nets, cfg)
				if err != nil {
					t.Fatalf("resume from iteration %d: %v", ck.Iteration, err)
				}
				assertSameResult(t, "resume@"+itoa(ck.Iteration), got, want)
			}
		})
	}
}

// TestCheckpointResumeCrossWorkers: a checkpoint written by a Workers=1 run
// resumes under Workers=4 (and vice versa) with identical results — the
// worker-count-invariance contract extends across the checkpoint boundary.
func TestCheckpointResumeCrossWorkers(t *testing.T) {
	spec := specNamed(t, "term1")
	cks, want := captureAll(t, Config{Workers: 1})
	mid := cks[len(cks)/2]
	for _, w := range []int{1, 4} {
		fab, ckt := synth(t, spec, spec.PaperIKMB)
		got, err := Route(fab, ckt.Nets, Config{Workers: w, Resume: mid})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "cross-workers", got, want)
	}
}

// TestCheckpointEmissionIsTransparent: a run with checkpointing enabled is
// bit-identical to one without — emission must never perturb the engine.
func TestCheckpointEmissionIsTransparent(t *testing.T) {
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	plain, err := Route(fab, ckt.Nets, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, withCk := captureAll(t, Config{Workers: 4})
	assertSameResult(t, "checkpointing-on", withCk, plain)
}

// TestCheckpointCadence: CheckpointEvery=K emits exactly at iterations
// divisible by K, and a resumed run keeps the absolute cadence.
func TestCheckpointCadence(t *testing.T) {
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	var iters []int
	res, err := Route(fab, ckt.Nets, Config{
		Workers:         2,
		CheckpointEvery: 3,
		CheckpointFn:    func(ck *Checkpoint) { iters = append(iters, ck.Iteration) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Skip("run converged before the first cadence point")
	}
	for i, it := range iters {
		if it%3 != 0 {
			t.Fatalf("checkpoint %d at iteration %d, want a multiple of 3", i, it)
		}
		if it >= res.Iterations {
			t.Fatalf("checkpoint at iteration %d, but the run returned at %d before emission", it, res.Iterations)
		}
	}
}

// TestCheckpointResumeGuards: incompatible checkpoints are rejected with an
// error, never silently resumed. Checkpoints that pass the shape guards but
// carry impossible contents (the last three cases) fail the same way
// instead of panicking inside restore. Every rejection wraps
// ErrBadCheckpoint, so a caller can tell "start over" from a routing
// failure.
func TestCheckpointResumeGuards(t *testing.T) {
	spec := specNamed(t, "term1")
	cks, _ := captureAll(t, Config{Workers: 1})
	base := cks[0]
	for _, tc := range []struct {
		name   string
		mutate func(*Checkpoint)
		cfg    Config
	}{
		{"incremental", func(ck *Checkpoint) { ck.Incremental = false }, Config{Workers: 1}},
		{"algorithm", func(ck *Checkpoint) {}, Config{Workers: 1, Algorithm: AlgKMB}},
		{"nets", func(ck *Checkpoint) { ck.Nets++ }, Config{Workers: 1}},
		{"resources", func(ck *Checkpoint) { ck.Resources++ }, Config{Workers: 1}},
		{"history", func(ck *Checkpoint) { ck.History = ck.History[:0] }, Config{Workers: 1}},
		{"iteration", func(ck *Checkpoint) { ck.Iteration = 0 }, Config{Workers: 1}},
		{"edge-range", func(ck *Checkpoint) {
			ck.Trees = slices.Clone(ck.Trees)
			ck.Trees[0].Edges = append(slices.Clone(ck.Trees[0].Edges), 1<<30)
		}, Config{Workers: 1}},
		{"reroute-range", func(ck *Checkpoint) { ck.Reroute = append(slices.Clone(ck.Reroute), int32(ck.Nets)) }, Config{Workers: 1}},
		{"hist-finite", func(ck *Checkpoint) {
			ck.Hist = slices.Clone(ck.Hist)
			ck.Hist[len(ck.Hist)/2] = math.NaN()
		}, Config{Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := *base
			tc.mutate(&ck)
			fab, ckt := synth(t, spec, spec.PaperIKMB)
			cfg := tc.cfg
			cfg.Resume = &ck
			_, err := Route(fab, ckt.Nets, cfg)
			if err == nil {
				t.Fatal("incompatible checkpoint resumed without error")
			}
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("err = %v, want one wrapping ErrBadCheckpoint", err)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
