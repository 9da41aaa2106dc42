package stats

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSnapshot sets every counter to a distinct non-zero value, so the
// golden files pin each counter's name, help text, type, formatting and
// position.
func goldenSnapshot() Snapshot {
	s := Snapshot{
		SSSPRuns:             101,
		HeapPushes:           202,
		NetsRouted:           303,
		NetFailures:          4,
		NetTime:              1234567 * time.Microsecond,
		MaxNetTime:           89012 * time.Microsecond,
		Passes:               5,
		RipUps:               6,
		WidthProbes:          7,
		CandidateEvals:       808,
		Screened:             609,
		SteinerPoints:        10,
		ParallelScans:        11,
		ScanWall:             345678 * time.Microsecond,
		ScanCPU:              456789 * time.Microsecond,
		JobRetries:           12,
		JobPanics:            13,
		PartialResults:       14,
		PathfinderIters:      15,
		OverflowEdges:        16,
		PriceUpdates:         17,
		IncrementalReroutes:  18,
		EdgesRipped:          19,
		EdgesRetained:        20,
		ReduceEdgesSkipped:   21,
		CheckpointsWritten:   22,
		JobsRecovered:        23,
		JournalReplayRecords: 24,
		JournalAppendErrors:  25,
	}
	for i := range s.Congestion {
		s.Congestion[i] = int64(31 + i)
	}
	return s
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (go test -run %s -update rewrites it):\n%s", path, t.Name(), got)
	}
}

// TestWritePrometheusGolden pins the /metrics exposition byte for byte.
func TestWritePrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	goldenSnapshot().WritePrometheus(&b, "fpgarouter")
	checkGolden(t, "metrics.golden", b.Bytes())
}

// TestStringGolden pins the -stats report byte for byte.
func TestStringGolden(t *testing.T) {
	checkGolden(t, "stats.golden", []byte(goldenSnapshot().String()))
}
