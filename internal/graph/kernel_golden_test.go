package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kernels.golden from the current search kernels")

// kernelGoldenFile holds one fingerprint per kernelCases entry.
var kernelGoldenFile = filepath.Join("testdata", "kernels.golden")

// hashRun feeds one kernel run into h: every label of its tree, the goal
// it returned, the point-to-point cost, path and reachability, and the
// Settled and HeapPushes it added.
func hashRun(h hash.Hash, r searchRun) {
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	if r.tree != nil {
		word(uint64(len(r.tree.Dist)))
		for v := range r.tree.Dist {
			word(math.Float64bits(r.tree.Dist[v]))
			word(uint64(r.tree.ParentEdge[v]))
			word(uint64(r.tree.ParentNode[v]))
		}
	}
	word(uint64(r.goal))
	word(math.Float64bits(r.cost))
	word(uint64(len(r.path)))
	for _, id := range r.path {
		word(uint64(id))
	}
	if r.ok {
		word(1)
	} else {
		word(0)
	}
	word(uint64(r.settled))
	word(uint64(r.pushes))
}

// TestKernelGoldenParity pins every search kernel (kernelCases) byte for
// byte over a fixed set of random pinGrid queries: on each of 40 graphs,
// four rounds of BeginNet-style tap enables, random prices, blocked sets,
// stop sets and seeds. Each kernel's trees, goals, paths and work counters
// are hashed into one line of testdata/kernels.golden, beside their run,
// Settled and HeapPushes totals, so a refactor of the search loops that
// moves any label or counter shows which kernel it moved. A change that moves them on purpose regenerates the file with
//
//	go test ./internal/graph -run TestKernelGoldenParity -update
//
// and says why in CHANGES.md. The hashes were recorded on amd64; Go may
// fuse multiply-adds elsewhere, so the comparison runs on amd64 only.
func TestKernelGoldenParity(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*update {
		t.Skipf("kernel hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	var names []string
	sums := map[string]hash.Hash{}
	totals := map[string]*[3]int64{} // runs, settled, pushes
	for seed := int64(1); seed <= 40; seed++ {
		p := newPinGrid(seed, true)
		rng := rand.New(rand.NewSource(1000 + seed))
		s := NewDijkstraScratch()
		for round := 0; round < 4; round++ {
			if round > 0 {
				p.openPins(rng, rng.Intn(4))
			}
			src, goal, stop, seeds, ov := p.randomQuery(rng)
			for _, kc := range kernelCases(src, goal, stop, seeds, ov, p.Bounds) {
				if sums[kc.name] == nil {
					names = append(names, kc.name)
					sums[kc.name] = sha256.New()
					totals[kc.name] = new([3]int64)
				}
				r := kc.run(p.Graph, s)
				hashRun(sums[kc.name], r)
				tot := totals[kc.name]
				tot[0]++
				tot[1] += r.settled
				tot[2] += r.pushes
				s.RecycleSPT(r.tree)
			}
		}
	}
	var got []string
	for _, name := range names {
		tot := totals[name]
		got = append(got, fmt.Sprintf("%s runs %d settled %d pushes %d sha256 %s",
			name, tot[0], tot[1], tot[2], hex.EncodeToString(sums[name].Sum(nil))))
	}
	if *update {
		if err := os.WriteFile(kernelGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(kernelGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d kernels, kernelCases has %d", kernelGoldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("kernel moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
