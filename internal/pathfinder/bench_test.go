package pathfinder

import (
	"testing"
)

// benchRouteBusc times a full converged pathfinder run on busc at the
// paper's width. The Full/Incremental pair isolates partial rip-up: both
// converge from the same starting point, so their ns_per_op ratio (and the
// edges_ripped contrast in the bench-json provenance) is the incremental
// saving.
func benchRouteBusc(b *testing.B, incremental bool) {
	spec := specNamed(b, "busc")
	fab, ckt := synth(b, spec, spec.PaperIKMB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Route(fab, ckt.Nets, Config{Incremental: incremental})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("no convergence at the paper width")
		}
	}
}

func BenchmarkRouteBuscFull(b *testing.B)        { benchRouteBusc(b, false) }
func BenchmarkRouteBuscIncremental(b *testing.B) { benchRouteBusc(b, true) }

// TestRouteAllocsBounded pins the per-run pooling: workers, overlays and
// reconnect buffers are acquired once per run and reused by every
// iteration, and a KMB evaluation allocates only the tree it returns, so a
// whole incremental route allocates a bounded amount — dominated by the
// per-run engine arrays and the per-net trees, not by anything
// per-iteration or per-candidate. The threshold is ~2× the measured
// steady-state count (67,455 for term1 at the paper width, sequential
// workers, the same with and without -race), so it fires on a structural
// regression such as re-acquiring scratch or overlays inside the
// iteration loop, or a per-call buffer back in the Steiner evaluation.
func TestRouteAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a long-mode check")
	}
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	// Warm the shared scratch pool so the measurement sees steady state.
	if _, err := Route(fab, ckt.Nets, Config{Workers: 1, Incremental: true}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Route(fab, ckt.Nets, Config{Workers: 1, Incremental: true})
		if err != nil || !res.Converged {
			t.Fatalf("route failed: %v (converged=%v)", err, res != nil && res.Converged)
		}
	})
	t.Logf("incremental route: %.0f allocations", allocs)
	const limit = 135000
	if allocs > limit {
		t.Fatalf("incremental route allocated %.0f objects, limit %d — per-iteration or per-candidate state is no longer pooled", allocs, limit)
	}
}
