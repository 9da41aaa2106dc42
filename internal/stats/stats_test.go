package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsSafe exercises every record method and Snapshot on a nil
// receiver: the zero-cost-when-absent contract.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Record(func(*Snapshot) { t.Fatal("nil collector ran a record function") })
	c.ObserveNet(time.Millisecond, true)
	c.RecordCongestion([]int32{1, 2}, 4)
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil collector snapshot %+v", s)
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := New()
	addSSSP := func(runs, pushes int64) {
		c.Record(func(s *Snapshot) {
			s.SSSPRuns += runs
			s.HeapPushes += pushes
		})
	}
	addSSSP(3, 40)
	addSSSP(2, 10)
	c.ObserveNet(2*time.Millisecond, true)
	c.ObserveNet(5*time.Millisecond, false)
	c.ObserveNet(time.Millisecond, true)
	c.Record(func(s *Snapshot) { s.Passes++ })
	c.Record(func(s *Snapshot) { s.Passes++ })
	c.Record(func(s *Snapshot) {
		s.RipUps += 4
		s.WidthProbes++
		s.CandidateEvals += 100
		s.Screened += 60
		s.SteinerPoints += 7
	})
	s := c.Snapshot()
	if s.SSSPRuns != 5 || s.HeapPushes != 50 {
		t.Fatalf("SSSP %d/%d", s.SSSPRuns, s.HeapPushes)
	}
	if s.NetsRouted != 2 || s.NetFailures != 1 {
		t.Fatalf("nets %d/%d", s.NetsRouted, s.NetFailures)
	}
	if s.NetTime != 8*time.Millisecond || s.MaxNetTime != 5*time.Millisecond {
		t.Fatalf("time %v max %v", s.NetTime, s.MaxNetTime)
	}
	if s.Passes != 2 || s.RipUps != 4 || s.WidthProbes != 1 {
		t.Fatalf("passes %d ripups %d probes %d", s.Passes, s.RipUps, s.WidthProbes)
	}
	if s.CandidateEvals != 100 || s.Screened != 60 || s.SteinerPoints != 7 {
		t.Fatalf("candidates %d/%d/%d", s.CandidateEvals, s.Screened, s.SteinerPoints)
	}
}

// TestCongestionHistogram checks bucket assignment (decile bins, full spans
// clamped into the last) and that every span lands somewhere.
func TestCongestionHistogram(t *testing.T) {
	c := New()
	used := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10}
	c.RecordCongestion(used, 10)
	s := c.Snapshot()
	var sum int64
	for _, n := range s.Congestion {
		sum += n
	}
	if sum != int64(len(used)) {
		t.Fatalf("histogram holds %d spans, want %d", sum, len(used))
	}
	if s.Congestion[0] != 1 { // only utilization 0
		t.Fatalf("bucket 0 = %d", s.Congestion[0])
	}
	if s.Congestion[CongestionBuckets-1] != 3 { // 9/10 and the two full spans
		t.Fatalf("last bucket = %d", s.Congestion[CongestionBuckets-1])
	}
	// Zero width records nothing (and must not divide by zero).
	c2 := New()
	c2.RecordCongestion(used, 0)
	if c2.Snapshot() != (Snapshot{}) {
		t.Fatal("zero-width congestion recorded")
	}
}

// TestConcurrentRecording hammers one collector from many goroutines — the
// sharing model of the service's workers and the pathfinder's net workers —
// and checks totals.
func TestConcurrentRecording(t *testing.T) {
	c := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Record(func(s *Snapshot) {
					s.SSSPRuns++
					s.HeapPushes += 2
				})
				c.ObserveNet(time.Microsecond, i%2 == 0)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.SSSPRuns != workers*per || s.HeapPushes != 2*workers*per {
		t.Fatalf("SSSP %d/%d", s.SSSPRuns, s.HeapPushes)
	}
	if s.NetsRouted+s.NetFailures != workers*per {
		t.Fatalf("nets %d+%d", s.NetsRouted, s.NetFailures)
	}
}

func TestSnapshotString(t *testing.T) {
	c := New()
	c.Record(func(s *Snapshot) {
		s.SSSPRuns += 12
		s.HeapPushes += 345
		s.Passes++
		s.CandidateEvals += 72767
		s.Screened += 71000
		s.SteinerPoints += 80
	})
	out := c.Snapshot().String()
	for _, want := range []string{"router stats:", "SSSP runs", "12", "345", "congestion",
		"candidate evals    72767 (screened 71000, Steiner points admitted 80)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotWritePrometheus(t *testing.T) {
	c := New()
	c.Record(func(s *Snapshot) {
		s.SSSPRuns += 12
		s.HeapPushes += 345
		s.Passes++
		s.WidthProbes++
		s.CandidateEvals += 9
		s.Screened += 4
		s.SteinerPoints++
	})
	c.ObserveNet(1500*time.Microsecond, true)
	c.RecordCongestion([]int32{0, 5, 10}, 10)
	var b strings.Builder
	c.Snapshot().WritePrometheus(&b, "fpgarouter")
	out := b.String()
	for _, want := range []string{
		"# TYPE fpgarouter_sssp_runs_total counter",
		"fpgarouter_sssp_runs_total 12",
		"fpgarouter_heap_pushes_total 345",
		"fpgarouter_passes_total 1",
		"fpgarouter_width_probes_total 1",
		"# TYPE fpgarouter_candidates_screened_total counter",
		"fpgarouter_candidates_screened_total 4",
		"fpgarouter_net_time_seconds_total 0.0015",
		`fpgarouter_span_utilization_spans{decile="0"} 1`,
		`fpgarouter_span_utilization_spans{decile="9"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
