package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"udi/internal/obs"
)

func testRecords() []Record {
	return []Record{
		{Seq: 1, Kind: "feedback", Data: []byte(`{"source":"s1"}`)},
		{Seq: 2, Kind: "add_source", Data: bytes.Repeat([]byte("row,"), 50)},
		{Seq: 3, Kind: "abort", Data: nil},
		{Seq: 4, Kind: "feedback", Data: []byte(`{"source":"s2","confirmed":true}`)},
		{Seq: 5, Kind: "remove_source", Data: []byte(`"s1"`)},
	}
}

func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	w, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log holds %d records", len(got))
	}
	for _, r := range recs {
		if err := w.Append(Entry{r.Seq, r.Kind, r.Data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func sameRecords(a []Record, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func TestAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := testRecords()
	writeLog(t, path, recs)

	w, got, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !sameRecords(got, recs) {
		t.Fatalf("reopen: got %+v want %+v", got, recs)
	}
	// Offsets must be strictly increasing from 0.
	if got[0].Off != 0 {
		t.Errorf("first record at offset %d", got[0].Off)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Off <= got[i-1].Off {
			t.Errorf("offsets not increasing: %d then %d", got[i-1].Off, got[i].Off)
		}
	}
	// Appending after reopen keeps the log readable.
	if err := w.Append(Entry{6, "feedback", []byte("x")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, got2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got2) != len(recs)+1 || got2[len(got2)-1].Seq != 6 {
		t.Fatalf("append after reopen lost records: %d", len(got2))
	}
}

// TestKillAtEveryByteOffset is the WAL half of the crash matrix: for a
// log of K bytes, every prefix in [0, K) must recover exactly the
// records whose frames fit completely in the prefix — the torn tail is
// dropped, nothing valid is lost, and recovery never errors (truncation
// is always a torn tail, never mid-log corruption).
func TestKillAtEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	recs := testRecords()
	writeLog(t, full, recs)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Frame end offsets, recovered from a clean re-read.
	_, complete, err := Open(full, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(complete))
	for i := range complete {
		if i+1 < len(complete) {
			ends[i] = complete[i+1].Off
		} else {
			ends[i] = int64(len(raw))
		}
	}

	for off := 0; off < len(raw); off++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", off))
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		wantN := 0
		var wantEnd int64
		for i := range ends {
			if ends[i] <= int64(off) {
				wantN = i + 1
				wantEnd = ends[i]
			}
		}
		if !sameRecords(got, recs[:wantN]) {
			w.Close()
			t.Fatalf("offset %d: recovered %d records, want %d", off, len(got), wantN)
		}
		// The torn tail must be physically gone: the file ends at the
		// last valid frame.
		if w.Size() != wantEnd {
			w.Close()
			t.Fatalf("offset %d: size %d after truncation, want %d", off, w.Size(), wantEnd)
		}
		w.Close()
		os.Remove(path)
	}
}

// TestMidLogCorruptionRefused flips a payload byte of an early record (a
// later record exists) and expects ErrCorrupt: damaged history must stop
// recovery, not silently truncate committed records.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	writeLog(t, path, testRecords())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the first record (frame starts at 0, its
	// payload starts at headerSize; +10 lands inside kind/data).
	raw[headerSize+10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestFinalFrameBadChecksumDropped: a checksum failure on the very last
// frame is indistinguishable from an append whose fsync never completed,
// so it is dropped as a torn tail, not refused.
func TestFinalFrameBadChecksumDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	recs := testRecords()
	writeLog(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, recs[:len(recs)-1]) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs)-1)
	}
}

func TestGarbageLengthRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	writeLog(t, path, testRecords())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A length field claiming more than MaxRecord is corruption even at
	// the tail: no append could have written it.
	raw[3] = 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage length: err = %v, want ErrCorrupt", err)
	}
}

func TestResetAndTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := testRecords()
	w, _, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(Entry{r.Seq, r.Kind, r.Data}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the final record, as recovery does for an uncommitted tail op.
	if err := w.TruncateTo(got[len(got)-1].Off); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Entry{99, "feedback", nil}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, got, err = Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1].Seq != 99 || len(got) != len(recs) {
		t.Fatalf("after TruncateTo+Append: %d records, last seq %d", len(got), got[len(got)-1].Seq)
	}
	// Checkpoint rotation empties the log.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Errorf("size %d after Reset", w.Size())
	}
	w.Close()
	w, got, err = Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(got) != 0 {
		t.Errorf("%d records after Reset", len(got))
	}
}

func TestAppendMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, Options{Obs: reg}) // fsync on: wal.fsync_seconds must record
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Entry{1, "feedback", []byte("data")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snap := reg.Snapshot()
	if snap.Counters["wal.append.records"] != 1 {
		t.Errorf("wal.append.records = %d", snap.Counters["wal.append.records"])
	}
	if snap.Counters["wal.append.bytes"] == 0 {
		t.Error("wal.append.bytes not recorded")
	}
	if snap.Histograms["wal.fsync_seconds"].Count != 1 {
		t.Errorf("wal.fsync_seconds count = %d", snap.Histograms["wal.fsync_seconds"].Count)
	}

	// Reopen records replay metrics.
	reg2 := obs.NewRegistry()
	w, _, err = Open(path, Options{NoSync: true, Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := reg2.Snapshot().Counters["wal.replay.records"]; got != 1 {
		t.Errorf("wal.replay.records = %d", got)
	}
}

// TestAppendBatchRoundTrip: records landed by one multi-entry Append
// must be indistinguishable on replay from records landed one per Append
// — same frames, same offsets discipline — and the two can interleave
// freely in one log.
func TestAppendBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := testRecords()
	w, _, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Entry{recs[0].Seq, recs[0].Kind, recs[0].Data}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Entry, 0, 3)
	for _, r := range recs[1:4] {
		batch = append(batch, Entry{Seq: r.Seq, Kind: r.Kind, Data: r.Data})
	}
	if err := w.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(); err != nil { // empty batch is a no-op
		t.Fatal(err)
	}
	if err := w.Append(Entry{recs[4].Seq, recs[4].Kind, recs[4].Data}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !sameRecords(got, recs) {
		t.Fatalf("reopen after a batched Append: got %+v want %+v", got, recs)
	}
}

// TestKillAtEveryByteOffsetBatched extends the crash matrix to batched
// appends: a log written entirely by one Append, truncated at every
// byte offset, must recover a clean prefix of the batch's records — the
// torn frame dropped, every earlier frame intact, never an error.
func TestKillAtEveryByteOffsetBatched(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	recs := testRecords()
	w, _, err := Open(full, Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Entry, len(recs))
	for i, r := range recs {
		batch[i] = Entry{Seq: r.Seq, Kind: r.Kind, Data: r.Data}
	}
	if err := w.Append(batch...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	_, complete, err := Open(full, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(complete))
	for i := range complete {
		if i+1 < len(complete) {
			ends[i] = complete[i+1].Off
		} else {
			ends[i] = int64(len(raw))
		}
	}

	for off := 0; off < len(raw); off++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", off))
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path, Options{NoSync: true, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		wantN := 0
		for i := range ends {
			if ends[i] <= int64(off) {
				wantN = i + 1
			}
		}
		if !sameRecords(got, recs[:wantN]) {
			w.Close()
			t.Fatalf("offset %d: recovered %d records, want clean prefix of %d", off, len(got), wantN)
		}
		w.Close()
		os.Remove(path)
	}
}

// TestAppendBatchMetrics: the batch barrier records one fsync and one
// batch for N records.
func TestAppendBatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Append([]Entry{
		{Seq: 1, Kind: "feedback", Data: []byte("a")},
		{Seq: 2, Kind: "feedback", Data: []byte("b")},
		{Seq: 3, Kind: "feedback", Data: []byte("c")},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wal.append.records"]; got != 3 {
		t.Errorf("wal.append.records = %d, want 3", got)
	}
	if got := snap.Counters["wal.append.batches"]; got != 1 {
		t.Errorf("wal.append.batches = %d, want 1", got)
	}
	if got := snap.Histograms["wal.fsync_seconds"].Count; got != 1 {
		t.Errorf("wal.fsync_seconds count = %d, want 1 (one barrier for the batch)", got)
	}
}

// faultFile fails the next Write (after landing its first short bytes)
// or the next Sync with the error it is armed with, once; every other
// call goes to the real file.
type faultFile struct {
	file
	writeErr, syncErr error
	short             int
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.writeErr; err != nil {
		f.writeErr = nil
		n, _ := f.file.Write(p[:f.short])
		return n, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.file.Sync()
}

// TestFailStop: a short write and a failed fsync each leave the file at
// the last acknowledged frame, with Size() equal to its length; the
// handle then refuses every later mutation with ErrFailed wrapping the
// first cause; and a reopen returns exactly the acknowledged records.
func TestFailStop(t *testing.T) {
	efbig, eio := errors.New("file too large"), errors.New("input/output error")
	for _, tc := range []struct {
		name  string
		fault *faultFile
		cause error
	}{
		{"short write", &faultFile{writeErr: efbig, short: 11}, efbig},
		{"failed fsync", &faultFile{syncErr: eio}, eio},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			recs := testRecords()
			w, _, err := Open(path, Options{Obs: obs.Disabled})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(Entry{recs[0].Seq, recs[0].Kind, recs[0].Data}); err != nil {
				t.Fatal(err)
			}
			tc.fault.file = w.f
			w.f = tc.fault
			err = w.Append(Entry{recs[1].Seq, recs[1].Kind, recs[1].Data})
			if !errors.Is(err, ErrFailed) || !errors.Is(err, tc.cause) {
				t.Fatalf("faulted append: err = %v, want ErrFailed wrapping %v", err, tc.cause)
			}
			checkSize := func(when string) {
				t.Helper()
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if w.Size() != fi.Size() {
					t.Fatalf("%s: Size() = %d, the file is %d bytes", when, w.Size(), fi.Size())
				}
			}
			checkSize("after the fault")
			for name, mutate := range map[string]func() error{
				"Append":     func() error { return w.Append(Entry{recs[2].Seq, recs[2].Kind, recs[2].Data}) },
				"Append()":   func() error { return w.Append() },
				"Reset":      w.Reset,
				"TruncateTo": func() error { return w.TruncateTo(0) },
			} {
				if err := mutate(); !errors.Is(err, ErrFailed) || !errors.Is(err, tc.cause) {
					t.Errorf("%s after the fault: err = %v, want ErrFailed wrapping %v", name, err, tc.cause)
				}
				checkSize(name + " after the fault")
			}
			w.Close()
			w2, got, err := Open(path, Options{Obs: obs.Disabled})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer w2.Close()
			if !sameRecords(got, recs[:1]) {
				t.Fatalf("reopen recovered %d records, want the 1 acknowledged", len(got))
			}
			// The reopened handle appends again, right after the last
			// acknowledged frame.
			if err := w2.Append(Entry{recs[2].Seq, recs[2].Kind, recs[2].Data}); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			_, got, err = Open(path, Options{Obs: obs.Disabled})
			if err != nil || !sameRecords(got, []Record{recs[0], recs[2]}) {
				t.Fatalf("after reopen and append: %d records, err %v", len(got), err)
			}
		})
	}
}
