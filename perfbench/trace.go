package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer: its name, the
// span that caused it, the request (circuit or job) it served, and when it
// ran.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Req    string
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfMs returns, per span name, the mean self time in milliseconds: a
// span's duration minus the part its child spans cover. Children of one
// span run one after another on the caller's goroutine, so their durations
// add up without overlap.
func (t *tracer) selfMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End.Sub(s.Start)
		}
	}
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range t.spans {
		total[s.Name] += s.End.Sub(s.Start) - childSum[s.ID]
		count[s.Name]++
	}
	out := make(map[string]float64, len(total))
	for name, d := range total {
		out[name] = ms(d) / float64(count[name])
	}
	return out
}

// write stores every span as one JSON line, times in microseconds from the
// first span's start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].Start
	}
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent,omitempty"`
			Name    string `json:"name"`
			Req     string `json:"req,omitempty"`
			StartUs int64  `json:"start_us"`
			EndUs   int64  `json:"end_us"`
		}{s.ID, s.Parent, s.Name, s.Req, s.Start.Sub(t0).Microseconds(), s.End.Sub(t0).Microseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
