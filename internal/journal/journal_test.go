package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpgarouter/internal/faultpoint"
)

func openClean(t *testing.T, opts Options) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	j, rep, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 || rep.SalvagedBytes != 0 {
		t.Fatalf("fresh log replayed %d records, salvaged %d bytes", len(rep.Records), rep.SalvagedBytes)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := Record{Event: EvSubmitted, JobID: jobID(i), Time: time.Unix(int64(i), 0).UTC(), Key: "k"}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func jobID(i int) string { return "job-" + string(rune('a'+i)) }

// TestAppendReplayRoundTrip: every acknowledged record comes back on
// replay, in order, field for field.
func TestAppendReplayRoundTrip(t *testing.T) {
	j, path := openClean(t, Options{})
	want := []Record{
		{Event: EvSubmitted, JobID: "job-000001", Time: time.Unix(10, 0).UTC(), Key: "abc", Request: []byte(`{"mode":"route"}`)},
		{Event: EvStarted, JobID: "job-000001", Time: time.Unix(11, 0).UTC()},
		{Event: EvCheckpointed, JobID: "job-000001", Time: time.Unix(12, 0).UTC(), Iteration: 7},
		{Event: EvDone, JobID: "job-000001", Time: time.Unix(13, 0).UTC(), Width: 9, Attempts: 2},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Appended(); got != int64(len(want)) {
		t.Fatalf("Appended() = %d, want %d", got, len(want))
	}
	j.Close()

	j2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.SalvagedBytes != 0 {
		t.Fatalf("clean log salvaged %d bytes", rep.SalvagedBytes)
	}
	if len(rep.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(want))
	}
	for i, rec := range rep.Records {
		w := want[i]
		if rec.Event != w.Event || rec.JobID != w.JobID || !rec.Time.Equal(w.Time) ||
			rec.Key != w.Key || string(rec.Request) != string(w.Request) ||
			rec.Iteration != w.Iteration || rec.Width != w.Width || rec.Attempts != w.Attempts {
			t.Fatalf("record %d replayed as %+v, want %+v", i, rec, w)
		}
	}
}

// TestTornTailSalvage: a crash mid-append leaves a truncated final frame;
// replay must keep every complete record, truncate the torn bytes, and
// leave the log appendable.
func TestTornTailSalvage(t *testing.T) {
	for _, cut := range []int64{1, 5, 12} { // inside header, inside payload
		j, path := openClean(t, Options{})
		appendN(t, j, 3)
		j.Close()

		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		full := info.Size()
		// Append a fourth record, then tear it: keep only `cut` bytes of it.
		j2, _, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, j2, 1)
		j2.Close()
		if err := os.Truncate(path, full+cut); err != nil {
			t.Fatal(err)
		}

		j3, rep, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(rep.Records) != 3 {
			t.Fatalf("cut=%d: salvaged %d records, want 3", cut, len(rep.Records))
		}
		if rep.SalvagedBytes != cut {
			t.Fatalf("cut=%d: salvaged %d bytes, want %d", cut, rep.SalvagedBytes, cut)
		}
		// The log must be fully usable after salvage.
		appendN(t, j3, 1)
		j3.Close()
		_, rep2, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep2.Records) != 4 || rep2.SalvagedBytes != 0 {
			t.Fatalf("cut=%d: post-salvage log replayed %d records (salvaged %d), want 4 clean",
				cut, len(rep2.Records), rep2.SalvagedBytes)
		}
	}
}

// TestCorruptRecordSalvage: a bit flip inside a record's payload fails its
// CRC; replay keeps everything before it and drops it and everything after
// (the log has no record boundaries to resync on).
func TestCorruptRecordSalvage(t *testing.T) {
	j, path := openClean(t, Options{})
	appendN(t, j, 1)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := info.Size()
	appendN(t, j, 2)
	j.Close()

	// Flip one payload byte of the second record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Records) != 1 {
		t.Fatalf("salvaged %d records, want 1 (corruption at record 2)", len(rep.Records))
	}
	if rep.SalvagedBytes == 0 {
		t.Fatal("corruption reported no salvaged bytes")
	}
}

// TestCorruptLengthSalvage: a frame declaring an absurd length is treated
// as corruption, not an allocation request.
func TestCorruptLengthSalvage(t *testing.T) {
	j, path := openClean(t, Options{})
	appendN(t, j, 2)
	j.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], uint32(maxRecordLen+1))
	if _, err := f.WriteAt(huge[:], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 || rep.SalvagedBytes == 0 {
		t.Fatalf("corrupt length replayed %d records, salvaged %d bytes", len(rep.Records), rep.SalvagedBytes)
	}
}

// TestFaultJournalAppendDegradesReadOnly: an injected append failure (disk
// full) flips the journal read-only; the failing append reports the cause,
// later appends fail fast with ErrReadOnly, and already-acknowledged
// records replay intact.
func TestFaultJournalAppendDegradesReadOnly(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	j, path := openClean(t, Options{})
	appendN(t, j, 2)

	boom := errors.New("disk full")
	faultpoint.Arm(faultpoint.JournalAppend, faultpoint.Plan{Action: faultpoint.Error, Err: boom, Nth: 1})
	err := j.Append(Record{Event: EvStarted, JobID: "job-x", Time: time.Now()})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, boom) {
		t.Fatalf("degrading append error = %v, want ErrReadOnly wrapping the cause", err)
	}
	if !j.ReadOnly() {
		t.Fatal("journal not read-only after append failure")
	}
	if cause := j.DegradedCause(); !errors.Is(cause, boom) {
		t.Fatalf("DegradedCause() = %v, want the injected fault", cause)
	}
	faultpoint.Reset()
	// Sticky: even with the fault gone, the journal stays read-only.
	if err := j.Append(Record{Event: EvDone, JobID: "job-x", Time: time.Now()}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append after degradation = %v, want ErrReadOnly", err)
	}
	j.Close()

	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.SalvagedBytes != 0 {
		t.Fatalf("degraded log replayed %d records (salvaged %d), want the 2 acknowledged ones",
			len(rep.Records), rep.SalvagedBytes)
	}
}

// TestFaultJournalFsyncDegradesReadOnly: same degradation when the fsync
// sealing a record fails rather than the write itself.
func TestFaultJournalFsyncDegradesReadOnly(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	j, _ := openClean(t, Options{})
	boom := errors.New("fsync: no space left on device")
	faultpoint.Arm(faultpoint.JournalFsync, faultpoint.Plan{Action: faultpoint.Error, Err: boom, Nth: 1})
	err := j.Append(Record{Event: EvSubmitted, JobID: "job-y", Time: time.Now()})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, boom) {
		t.Fatalf("fsync-degraded append error = %v", err)
	}
	if !j.ReadOnly() {
		t.Fatal("journal not read-only after fsync failure")
	}
}

// TestStoreRoundTrip: blobs come back exactly, Has/Delete behave, and an
// overwrite replaces atomically.
func TestStoreRoundTrip(t *testing.T) {
	s, err := NewStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	type blob struct {
		A int     `json:"a"`
		B string  `json:"b"`
		C float64 `json:"c"`
	}
	key := Key([]byte("route"), []byte("busc"), []byte{9})
	if s.Has(key) {
		t.Fatal("Has on empty store")
	}
	var out blob
	if ok, err := s.Get(key, &out); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	in := blob{A: 7, B: "x", C: 0.1 + 0.2} // a float that must round-trip exactly
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key) {
		t.Fatal("Has false after Put")
	}
	if ok, err := s.Get(key, &out); err != nil || !ok || out != in {
		t.Fatalf("Get = %+v (ok=%v err=%v), want %+v", out, ok, err, in)
	}
	in2 := blob{A: 8}
	if err := s.Put(key, in2); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Get(key, &out); !ok || out != in2 {
		t.Fatalf("overwrite Get = %+v, want %+v", out, in2)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if s.Has(key) {
		t.Fatal("Has true after Delete")
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("double Delete: %v", err)
	}
}

// TestStoreRejectsTraversalKeys: keys cannot escape the store directory.
func TestStoreRejectsTraversalKeys(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a/b", `a\b`, "..", "x..y"} {
		if err := s.Put(key, 1); err == nil {
			t.Fatalf("Put accepted key %q", key)
		}
	}
}

// TestKeyBoundaries: the length-prefixed hash distinguishes chunk
// boundaries and is deterministic.
func TestKeyBoundaries(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("chunk boundary collision")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("Key not deterministic")
	}
}

// TestJournalBatchAppendOneFsync: a batch appends its records in one write
// and one fsync (each fault point hit once per call), counts every record
// in Appended, and leaves the same bytes on disk as appending the records
// one at a time.
func TestJournalBatchAppendOneFsync(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	recs := []Record{
		{Event: EvSubmitted, JobID: "job-000001", Time: time.Unix(10, 0).UTC(), Key: "abc", Request: []byte(`{"mode":"route"}`)},
		{Event: EvDone, JobID: "job-000001", Time: time.Unix(10, 0).UTC(), Key: "abc", Width: 9},
	}
	single, singlePath := openClean(t, Options{})
	for _, rec := range recs {
		if err := single.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	single.Close()

	batch, batchPath := openClean(t, Options{})
	faultpoint.Arm(faultpoint.JournalAppend, faultpoint.Plan{}) // count hits, never fire
	faultpoint.Arm(faultpoint.JournalFsync, faultpoint.Plan{})
	if err := batch.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if w, s := faultpoint.Hits(faultpoint.JournalAppend), faultpoint.Hits(faultpoint.JournalFsync); w != 1 || s != 1 {
		t.Fatalf("batch of %d hit the append point %d times and the fsync point %d times, want 1 and 1", len(recs), w, s)
	}
	if got := batch.Appended(); got != int64(len(recs)) {
		t.Fatalf("Appended() = %d, want %d", got, len(recs))
	}
	if err := batch.Append(); err != nil || batch.Appended() != int64(len(recs)) || faultpoint.Hits(faultpoint.JournalFsync) != 1 {
		t.Fatalf("an empty batch wrote or failed: err %v, Appended %d", err, batch.Appended())
	}
	batch.Close()

	want, err := os.ReadFile(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("batched log differs from record-by-record log:\n%q\nvs\n%q", got, want)
	}
}

// TestJournalBatchTornSecondFrame: a crash that tears a batch's second
// frame replays the first record alone, as a crash between two separate
// appends would, and truncates the torn bytes.
func TestJournalBatchTornSecondFrame(t *testing.T) {
	j, path := openClean(t, Options{})
	appendN(t, j, 1)
	j.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	before := info.Size()

	j2, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := Record{Event: EvSubmitted, JobID: "job-b", Time: time.Unix(20, 0).UTC(), Key: "k"}
	second := Record{Event: EvDone, JobID: "job-b", Time: time.Unix(20, 0).UTC(), Key: "k", Width: 7}
	if err := j2.Append(first, second); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	info, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first frame's length field says where the second frame starts.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secondAt := before + frameHeader + int64(binary.LittleEndian.Uint32(raw[before:before+4]))
	cut := secondAt + (info.Size()-secondAt)/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	j3, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rep.Records) != 2 || rep.Records[1].Event != EvSubmitted || rep.Records[1].JobID != "job-b" {
		t.Fatalf("torn batch replayed %+v, want the earlier record and job-b's submitted record", rep.Records)
	}
	if rep.SalvagedBytes != cut-secondAt {
		t.Fatalf("salvaged %d bytes, want the %d torn bytes of the second frame", rep.SalvagedBytes, cut-secondAt)
	}
}
