// Package journal is the durability layer of the routing service: an
// append-only, checksummed write-ahead log of job lifecycle events plus a
// content-addressed blob store for results and checkpoints (store.go).
//
// The log is a flat file of framed records:
//
//	record := length (uint32 LE) | crc32-IEEE(payload) (uint32 LE) | payload
//
// where payload is the JSON encoding of a Record. Appends are serialized,
// written in one Write call, and (by default) fsynced before Append
// returns, so a record that was acknowledged survives a crash. Replay
// scans the file front to back, verifying each frame's length and CRC; the
// first bad frame marks a torn tail — a crash mid-append — and everything
// before it is salvaged while the tail is truncated away. A record is
// therefore either fully in the log or not in it at all.
//
// Failure is degraded, not fatal: the first append that cannot be written
// or flushed (disk full, injected fault) flips the journal into a sticky
// read-only mode. Every later Append fails fast with ErrReadOnly, and the
// owning service keeps running purely in-memory — losing durability, never
// availability — surfacing the degradation through /readyz.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/faultpoint"
)

// Lifecycle events recorded per job. A job's journal history is
// submitted → [started → checkpointed* →] (done | failed | canceled);
// replay reduces the history to the job's last state.
const (
	EvSubmitted    = "submitted"
	EvStarted      = "started"
	EvCheckpointed = "checkpointed"
	EvDone         = "done"
	EvFailed       = "failed"
	EvCanceled     = "canceled"
)

// Record is one journal entry. Only the fields meaningful for the event
// are set: a submitted record carries the request and content key, a
// checkpointed record the iteration reached, terminal records the outcome.
type Record struct {
	// Event is one of the Ev* constants.
	Event string `json:"event"`
	// JobID identifies the job across its whole history.
	JobID string `json:"job_id"`
	// Time stamps when the event was appended.
	Time time.Time `json:"time"`
	// Key is the job's content address (submitted records), which doubles
	// as the result-store key and the idempotency key for duplicates.
	Key string `json:"key,omitempty"`
	// Request is the verbatim submission (submitted records), replayed
	// through the same validation path on recovery.
	Request json.RawMessage `json:"request,omitempty"`
	// Iteration is the pathfinder iteration a checkpoint covers.
	Iteration int `json:"iteration,omitempty"`
	// Width is the routed (or minimum) width of a done record.
	Width int `json:"width,omitempty"`
	// Attempts is the execution count recorded by terminal records.
	Attempts int `json:"attempts,omitempty"`
	// Error is the failure or cancellation message of terminal records.
	Error string `json:"error,omitempty"`
}

// ErrReadOnly reports that the journal degraded to read-only after a write
// or fsync failure and is dropping appends (the service keeps running
// in-memory). Matches errors.Is on every Append after the degradation.
var ErrReadOnly = errors.New("journal: read-only (degraded after write failure)")

// maxRecordLen bounds a frame's declared payload length; anything larger
// is treated as corruption rather than an allocation request.
const maxRecordLen = 64 << 20

// frameHeader is the fixed per-record overhead: length + CRC.
const frameHeader = 8

// Options tunes a journal. The zero value is the durable default.
type Options struct {
	// NoSync skips the per-append fsync (tests and benchmarks only — a
	// crash may then lose acknowledged records, though salvage still
	// guarantees a clean prefix).
	NoSync bool
}

// Journal is an open write-ahead log. Safe for concurrent Append.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	opts Options

	readOnly atomic.Bool
	degraded error // first write failure, guarded by mu

	appended atomic.Int64
}

// Replay summarizes what Open recovered from an existing log file.
type Replay struct {
	// Records holds every intact record in append order.
	Records []Record
	// SalvagedBytes counts torn-tail bytes truncated away (0 for a clean
	// log). The log stays usable either way.
	SalvagedBytes int64
}

// Open opens (creating if absent) the write-ahead log at path, replays
// every intact record, and salvages a torn tail by truncating it. The
// returned journal appends after the last good record.
func Open(path string, opts Options) (*Journal, *Replay, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rep, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rep.SalvagedBytes > 0 {
		// A torn or corrupt tail: drop it so the next append starts a
		// clean frame instead of extending garbage.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, opts: opts}, rep, nil
}

// scan reads every intact frame of f from the start, returning the replay
// summary and the offset just past the last good record.
func scan(f *os.File) (*Replay, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	size := info.Size()
	rep := &Replay{}
	var off int64
	var hdr [frameHeader]byte
	for off+frameHeader <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordLen || off+frameHeader+n > size {
			break // torn or corrupt frame
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			break // bit rot or a partially overwritten frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framed but unparseable: treat as corruption, salvage before it
		}
		rep.Records = append(rep.Records, rec)
		off += frameHeader + n
	}
	rep.SalvagedBytes = size - off
	return rep, off, nil
}

// Append frames, writes and (unless Options.NoSync) fsyncs records: all of
// them in one write and one fsync, so a batch costs what one record costs.
// The frames are those of separate appends, and a crash that tears the
// batch leaves the records before the tear, as a crash between separate
// appends would. Each fault point is hit once per call. The first failing
// append degrades the journal to read-only: the error is returned, and
// every subsequent Append fails fast with ErrReadOnly.
func (j *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if j.readOnly.Load() {
		return ErrReadOnly
	}
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: encoding record: %w", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.readOnly.Load() {
		return ErrReadOnly
	}
	if err := faultpoint.Hit(faultpoint.JournalAppend); err != nil {
		return j.degrade(err)
	}
	if _, err := j.f.Write(buf); err != nil {
		return j.degrade(err)
	}
	if !j.opts.NoSync {
		if err := faultpoint.Hit(faultpoint.JournalFsync); err != nil {
			return j.degrade(err)
		}
		if err := j.f.Sync(); err != nil {
			return j.degrade(err)
		}
	}
	j.appended.Add(int64(len(recs)))
	return nil
}

// degrade flips the journal read-only (sticky) and wraps the triggering
// error so callers match both it and ErrReadOnly. Called under mu.
func (j *Journal) degrade(err error) error {
	j.degraded = err
	j.readOnly.Store(true)
	return fmt.Errorf("%w: %w", ErrReadOnly, err)
}

// ReadOnly reports whether the journal degraded after a write failure.
func (j *Journal) ReadOnly() bool { return j.readOnly.Load() }

// DegradedCause returns the write failure that degraded the journal (nil
// while healthy).
func (j *Journal) DegradedCause() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Appended returns how many records this process appended successfully
// (a batch counts each of its records).
func (j *Journal) Appended() int64 { return j.appended.Load() }

// Close closes the log file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	j.readOnly.Store(true)
	if j.degraded == nil {
		j.degraded = errors.New("journal: closed")
	}
	return err
}
