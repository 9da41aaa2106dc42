package pathfinder

import "testing"

// TestRouteAllocsBounded pins the per-run pooling: workers, overlays and
// reconnect buffers are acquired once per run and reused by every
// iteration, a KMB evaluation allocates only the tree it returns, and one
// the IKMB screen rules out allocates nothing, so a whole incremental
// route allocates a bounded amount — dominated by the per-run engine
// arrays and the per-net trees, not by anything per-iteration or
// per-candidate. The threshold is ~2× the measured steady-state count
// (9,604 for term1 at the paper width, sequential workers), so it fires on
// a structural regression such as re-acquiring scratch or overlays inside
// the iteration loop, a per-call buffer back in the Steiner evaluation, or
// screened-out candidates building trees again. At two workers the
// one-net-at-a-time passes fan each construction out over scan forks
// (about 11,700 allocations); the same limit holds there, so the forks'
// per-net setup must stay a constant, not a per-tree or per-candidate
// cost.
func TestRouteAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a long-mode check")
	}
	spec := specNamed(t, "term1")
	fab, ckt := synth(t, spec, spec.PaperIKMB)
	for _, workers := range []int{1, 2} {
		cfg := Config{Workers: workers}
		// Warm the shared scratch pool so the measurement sees steady state.
		if _, err := Route(fab, ckt.Nets, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			res, err := Route(fab, ckt.Nets, cfg)
			if err != nil || !res.Converged {
				t.Fatalf("route failed: %v (converged=%v)", err, res != nil && res.Converged)
			}
		})
		t.Logf("incremental route, %d workers: %.0f allocations", workers, allocs)
		const limit = 20000
		if allocs > limit {
			t.Fatalf("incremental route at %d workers allocated %.0f objects, limit %d — per-iteration or per-candidate state is no longer pooled", workers, allocs, limit)
		}
	}
}
