package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"fpgarouter/internal/circuits"
)

// batchCircuits are the circuits of the two batch workloads, routed in this
// order at each one's paper width (Spec.PaperIKMB).
var batchCircuits = []string{"busc", "dma", "term1", "apex7", "9symml"}

// serviceCircuits are the small 4000-series circuits behind service-mixed's
// fresh jobs.
var serviceCircuits = []string{"term1", "9symml", "apex7"}

// warmCircuit is routed once during set-up, before anything is timed, at
// synthesis seed warmSynthSeed under every workload seed, so that set-up
// does the same work whatever the seed.
const (
	warmCircuit   = "apex7"
	warmSynthSeed = 1
)

// synthPools lists, per circuit, synthesis seeds whose netlists cost about
// the same to route at the paper width. Drawing every run's netlists from
// these pools lets a workload seed change the inputs without changing how
// much work a run measures, so runs with different seeds can be compared.
// Seed 1 keeps
// synthesis seed 1 for every circuit, the netlists EXPERIMENTS.md reports.
//
// The pools were chosen by routing synthesis seeds 1–30 (busc 1–110, the
// service circuits 1–45) with both engines on a 2-vCPU machine. A pool's
// netlists route in the same number of sequential passes (term1 three, the
// others one), take within two of the same number of pathfinder iterations,
// and stay within about ±5% of the pool's median wirelength; for the
// service circuits the minwidth search as service-mixed runs it also
// returns the same width after the same number of probes (term1 9 after 3,
// apex7 9 after 3, 9symml 8 after 2). Counts, unlike times, repeat exactly,
// so they, not timings, decided membership.
var synthPools = map[string][]int64{
	"busc":   {1, 46, 49, 66, 105},
	"dma":    {4, 9, 11, 12, 20, 23, 24, 29, 30},
	"term1":  {2, 20, 23, 25, 26, 31, 34},
	"apex7":  {6, 8, 12, 15, 16, 20, 21, 26, 34, 43},
	"9symml": {4, 10, 18, 23, 24, 38, 40},
}

// batchSynthSeed returns the synthesis seed of circuit name under workload
// seed: 1 for seed 1, otherwise a pool entry picked by hashing the pair.
func batchSynthSeed(seed int64, name string) int64 {
	if seed == 1 {
		return 1
	}
	pool := synthPools[name]
	return pool[mix(seed, name)%uint64(len(pool))]
}

// mix hashes a workload seed and a label into a well-spread integer.
func mix(seed int64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// rngFor returns a deterministic random stream for (seed, label).
func rngFor(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), mix(seed, label)))
}

// synthesize builds circuit name at synthesis seed s with its paper width.
func synthesize(name string, s int64) (*circuits.Circuit, int, error) {
	spec, ok := circuits.SpecByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown circuit %q", name)
	}
	ckt, err := circuits.Synthesize(spec, s)
	if err != nil {
		return nil, 0, fmt.Errorf("synthesize %s seed %d: %w", name, s, err)
	}
	return ckt, spec.PaperIKMB, nil
}
