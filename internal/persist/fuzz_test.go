package persist

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/wal"
)

// smallSnapshot is a Save of a four-source People system, gzip and all.
func smallSnapshot(tb testing.TB) []byte {
	tb.Helper()
	spec := datagen.People(103)
	spec.NumSources = 4
	sys, err := core.Setup(datagen.MustGenerate(spec).Corpus, core.Config{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(b)
	gz.Close()
	return buf.Bytes()
}

func gunzip(tb testing.TB, b []byte) []byte {
	tb.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := io.ReadAll(gz)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzLoadSnapshot: any input either fails to load or loads a system
// whose Save loads again and saves to the same bytes. An input that does
// not start with the gzip magic is taken as the snapshot's JSON and
// compressed first, so mutations reach the decoder behind the gzip layer
// as well as the layer itself. The seeds are a format-2 Save of a small
// corpus, its JSON, and a hand-built format-1 snapshot: the same JSON at
// version 1 carrying the consolidated p-mappings field format 2 dropped.
func FuzzLoadSnapshot(f *testing.F) {
	saved := smallSnapshot(f)
	doc := gunzip(f, saved)
	f.Add(saved)
	f.Add(doc)
	v1 := strings.Replace(string(doc), `{"version":2,`, `{"version":1,"consolidated_mappings":[{"source":"x","mappings":[]}],`, 1)
	if v1 == string(doc) {
		f.Fatal("the saved snapshot does not open with its version")
	}
	f.Add([]byte(v1))
	f.Add([]byte(`{"version":2}`))
	for _, seed := range [][]byte{saved, gzipped(doc), gzipped([]byte(v1))} {
		if _, err := Load(bytes.NewReader(seed), core.Config{Parallelism: 1}); err != nil {
			f.Fatalf("a seed snapshot does not load: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			data = gzipped(data)
		}
		sys, err := Load(bytes.NewReader(data), core.Config{Parallelism: 1})
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Save(&first, sys); err != nil {
			t.Fatalf("save of a loaded system: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()), core.Config{Parallelism: 1})
		if err != nil {
			t.Fatalf("a loaded system's save does not load: %v", err)
		}
		if err := Save(&second, again); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the snapshot:\n%s\nvs\n%s", gunzip(t, first.Bytes()), gunzip(t, second.Bytes()))
		}
	})
}

// walFrames returns the log bytes a WAL holds after appending entries.
func walFrames(tb testing.TB, entries ...wal.Entry) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), walFile)
	w, _, err := wal.Open(path, wal.Options{NoSync: true, Obs: obs.Disabled})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Append(entries...); err != nil {
		tb.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// opEntry frames op as a WAL entry of sequence seq.
func opEntry(tb testing.TB, seq uint64, op core.Op) wal.Entry {
	tb.Helper()
	data, err := json.Marshal(&op)
	if err != nil {
		tb.Fatal(err)
	}
	return wal.Entry{Seq: seq, Kind: op.Kind, Data: data}
}

// rechecksum rewrites the checksum of every whole frame in data, so a
// fuzzed stream's mutations reach the records rather than stopping at
// the CRC check (FuzzReadFrames covers that).
func rechecksum(data []byte) []byte {
	data = bytes.Clone(data)
	for off := 0; len(data)-off >= 8; {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) || end < off {
			break
		}
		binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:end]))
		off = end
	}
	return data
}

// FuzzReplay: any frame stream the frame reader accepts (checksums
// recomputed first) replays into a fresh system without panicking. On success, Replay applied exactly the
// records above after that are neither abort records nor compensated by
// one. On error, it names a record it had to apply, and the system holds
// exactly the records before that one: it equals a fresh system that
// replayed only those. The seeds are real feedback, an added and a
// removed source, and an op compensated by an abort record.
func FuzzReplay(f *testing.F) {
	_, setup := tinySetup(f)
	fresh := func(tb testing.TB) *core.System {
		sys, err := setup()
		if err != nil {
			tb.Fatal(err)
		}
		return sys
	}
	base := fresh(f)
	fbs := feedbackOps(base, 2)
	if len(fbs) < 2 {
		f.Fatalf("corpus yielded only %d feedback ops", len(fbs))
	}
	added := core.SourceData{Name: "late-arrival", Attrs: []string{"name", "phone"}, Rows: [][]string{{"ada", "555-0100"}}}
	bad := core.Feedback{Source: "no-such", SrcAttr: "a", MedName: "b"}
	f.Add(walFrames(f,
		opEntry(f, 1, core.Op{Kind: core.OpFeedback, Feedback: &fbs[0]}),
		opEntry(f, 2, core.Op{Kind: core.OpAddSource, Add: &added}),
		opEntry(f, 3, core.Op{Kind: core.OpRemoveSource, Remove: base.Corpus.Sources[0].Name}),
		opEntry(f, 4, core.Op{Kind: core.OpFeedback, Feedback: &fbs[1]}),
	), uint64(0))
	f.Add(walFrames(f,
		opEntry(f, 1, core.Op{Kind: core.OpFeedback, Feedback: &fbs[0]}),
		opEntry(f, 2, core.Op{Kind: core.OpFeedback, Feedback: &bad}),
		wal.Entry{Seq: 2, Kind: AbortKind},
		opEntry(f, 3, core.Op{Kind: core.OpFeedback, Feedback: &fbs[1]}),
	), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		recs, err := wal.ReadFrames(rechecksum(data))
		if err != nil {
			return
		}
		aborted := make(map[uint64]bool)
		for _, r := range recs {
			if r.Kind == AbortKind {
				aborted[r.Seq] = true
			}
		}
		// due lists the records of recs Replay must apply.
		due := func(recs []wal.Record) []wal.Record {
			var out []wal.Record
			for _, r := range recs {
				if r.Seq > after && r.Kind != AbortKind && !aborted[r.Seq] {
					out = append(out, r)
				}
			}
			return out
		}
		sys := fresh(t)
		_, applied, failed, err := Replay(sys, recs, after)
		if err == nil {
			if want := len(due(recs)); applied != want || failed != -1 {
				t.Fatalf("replay applied %d of %d due records (failed %d)", applied, want, failed)
			}
			return
		}
		if failed < 0 || failed >= len(recs) || len(due(recs[failed:failed+1])) != 1 {
			t.Fatalf("replay failed at record %d of %d, not one it had to apply: %v", failed, len(recs), err)
		}
		before := due(recs[:failed])
		if applied != len(before) {
			t.Fatalf("replay applied %d records before failing at %d, %d were due", applied, failed, len(before))
		}
		control := fresh(t)
		if _, n, _, err := Replay(control, before, after); err != nil || n != len(before) {
			t.Fatalf("the records before the failure do not replay on their own: %d applied, %v", n, err)
		}
		var got, want bytes.Buffer
		if err := Save(&got, sys); err != nil {
			t.Fatal(err)
		}
		if err := Save(&want, control); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("a replay that failed at record %d left a state other than the records before it", failed)
		}
	})
}
