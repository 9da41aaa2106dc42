package router

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fpgarouter/internal/circuits"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_routes.json from the current router")

// goldenFile holds one fingerprint per golden route.
var goldenFile = filepath.Join("testdata", "golden_routes.json")

// goldenRoute fingerprints one routed paper circuit: the SHA-256 of its
// Result's JSON (every tree edge, cost and per-net metric) plus the
// headline numbers, so a diff shows at a glance which routes moved.
type goldenRoute struct {
	Circuit    string  `json:"circuit"`
	Mode       string  `json:"mode"`
	Width      int     `json:"width"`
	Wirelength float64 `json:"wirelength"`
	Passes     int     `json:"passes"` // rip-up passes, or pathfinder iterations
	SHA256     string  `json:"sha256"`
}

// goldenModes are the two engines the golden routes cover.
var goldenModes = []struct {
	name string
	opts Options
}{
	{"sequential", Options{}},
	{"parallel", Options{Parallel: true}},
}

// TestGoldenRoutes pins five paper circuits (seed 1, paper width) under
// both engines byte for byte: any change to a route, however small,
// changes its hash. A change that moves trees on purpose regenerates the
// file with
//
//	go test ./internal/router -run TestGoldenRoutes -update
//
// and lists the moved entries in CHANGES.md. Results do not depend on
// worker counts, so the hashes hold at any GOMAXPROCS. They were recorded
// on amd64; Go may fuse multiply-adds on other architectures, which can
// round differently, so the comparison runs on amd64 only.
func TestGoldenRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("routes ten whole paper circuits")
	}
	if runtime.GOARCH != "amd64" && !*update {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	var got []goldenRoute
	for _, name := range []string{"busc", "dma", "term1", "apex7", "9symml"} {
		spec, ok := circuits.SpecByName(name)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		ckt := synth(t, spec, 1)
		for _, m := range goldenModes {
			res, err := Route(ckt, spec.PaperIKMB, m.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			got = append(got, goldenRoute{
				Circuit: name, Mode: m.name, Width: res.Width,
				Wirelength: res.Wirelength, Passes: res.Passes,
				SHA256: hex.EncodeToString(sum[:]),
			})
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRoute
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d routes, the test routes %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("route moved:\n got %s\nwant %s", fmtGolden(got[i]), fmtGolden(want[i]))
		}
	}
}

func fmtGolden(r goldenRoute) string {
	return fmt.Sprintf("%s/%s width %d wirelength %v passes %d sha256 %s", r.Circuit, r.Mode, r.Width, r.Wirelength, r.Passes, r.SHA256)
}
