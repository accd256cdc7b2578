package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/schema"
	"udi/internal/sqlparse"
	"udi/internal/wal"
)

// tinySetup returns a small deterministic corpus and a setup function
// for OpenStore. Small keeps the per-offset fault-injection matrix fast.
func tinySetup(t testing.TB) (*datagen.Corpus, func() (*core.System, error)) {
	t.Helper()
	spec := datagen.People(41)
	spec.NumSources = 6
	spec.MinRows = 2
	spec.MaxRows = 4
	spec.Entities = 15
	c := datagen.MustGenerate(spec)
	return c, func() (*core.System, error) {
		return core.Setup(c.Corpus, core.Config{})
	}
}

// noSetup fails the test if OpenStore falls back to building a fresh
// system instead of restoring the persisted one.
func noSetup(t testing.TB) func() (*core.System, error) {
	return func() (*core.System, error) {
		t.Error("setup called on a warm start")
		return nil, errors.New("setup called on a warm start")
	}
}

// feedbackOps collects up to n distinct real correspondences to confirm,
// giving the tests a supply of valid replayable mutations.
func feedbackOps(sys *core.System, n int) []core.Feedback {
	var ops []core.Feedback
	for _, src := range sys.Corpus.Sources {
		for l, pm := range sys.Maps[src.Name] {
			for _, g := range pm.Groups {
				if len(g.Corrs) == 0 {
					continue
				}
				c := g.Corrs[0]
				ops = append(ops, core.Feedback{
					Source: src.Name, SrcAttr: c.SrcAttr,
					SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: true,
				})
				if len(ops) == n {
					return ops
				}
				break
			}
		}
	}
	return ops
}

type answerSig struct {
	key  string
	prob float64
}

// stateSig fingerprints the system's query-visible state: every ranked
// answer of the given queries, with probabilities.
func stateSig(t testing.TB, sys *core.System, queries []string) []answerSig {
	t.Helper()
	return answersSig(t, queries, sys.QueryParsed)
}

// answersSig is stateSig over any answerer (the soak's reference oracle
// answers through a bare engine).
func answersSig(t testing.TB, queries []string, run func(*sqlparse.Query) (*answer.ResultSet, error)) []answerSig {
	t.Helper()
	var sig []answerSig
	for _, qs := range queries {
		res, err := run(sqlparse.MustParse(qs))
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		for _, a := range res.Ranked {
			sig = append(sig, answerSig{key: qs + "|" + fmt.Sprint(a.Values), prob: a.Prob})
		}
	}
	return sig
}

func sameSig(a, b []answerSig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || math.Abs(a[i].prob-b[i].prob) > 1e-12 {
			return false
		}
	}
	return true
}

// TestStoreWarmStart: feedback, source arrival and departure all survive
// a restart — the reopened store replays the WAL tail onto the snapshot
// and answers identically, without calling setup again.
func TestStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	c, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Status(); got.CheckpointSeq != 0 || got.LastSeq != 0 {
		t.Fatalf("fresh store status = %+v", got)
	}

	for _, fb := range feedbackOps(sys, 2) {
		if err := sys.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	src := schema.MustNewSource("late-arrival", []string{"name", "phone"},
		[][]string{{"ada", "555-0100"}, {"grace", "555-0199"}})
	if _, err := sys.AddSources([]*schema.Source{src}); err != nil {
		t.Fatal(err)
	}
	removed := sys.Corpus.Sources[0].Name
	if _, err := sys.RemoveSource(removed); err != nil {
		t.Fatal(err)
	}
	queries := c.Domain.Queries[:3]
	want := stateSig(t, sys, queries)
	epoch := sys.Epoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Status().Replayed; got != 4 {
		t.Errorf("replayed %d records, want 4", got)
	}
	if !sameSig(want, stateSig(t, sys2, queries)) {
		t.Error("replayed state answers differ from pre-restart state")
	}
	for _, s := range sys2.Corpus.Sources {
		if s.Name == removed {
			t.Errorf("removed source %q resurrected by replay", removed)
		}
	}
	_ = epoch // epochs restart from 1 on load; equivalence is by answers

	// A forced checkpoint folds the tail into the snapshot: the next
	// open replays nothing and still answers identically.
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Status(); got.WALRecords != 0 || got.WALBytes != 0 {
		t.Errorf("post-checkpoint WAL not empty: %+v", got)
	}
	st2.Close()
	sys3, st3, err := OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Status().Replayed; got != 0 {
		t.Errorf("replayed %d records after checkpoint, want 0", got)
	}
	if !sameSig(want, stateSig(t, sys3, queries)) {
		t.Error("post-checkpoint state answers differ")
	}
}

// TestKillAtEveryWALOffset is the torn-write matrix: for a WAL of K
// bytes, a crash leaving any prefix [0,off) must recover to exactly the
// state after the last fully-logged mutation — never a partial or mixed
// state, and never a refusal (a pure truncation is always a torn tail,
// not mid-log corruption).
func TestKillAtEveryWALOffset(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	c, setup := tinySetup(t)
	opts := StoreOptions{NoSync: true, CheckpointEvery: 1 << 30}
	sys, st, err := OpenStore(live, core.Config{}, opts, setup)
	if err != nil {
		t.Fatal(err)
	}
	queries := c.Domain.Queries[:2]

	// states[k] fingerprints the committed state after k mutations;
	// ends[k-1] is the WAL size once mutation k is fully logged.
	states := [][]answerSig{stateSig(t, sys, queries)}
	var ends []int64
	for _, fb := range feedbackOps(sys, 3) {
		if err := sys.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
		states = append(states, stateSig(t, sys, queries))
		ends = append(ends, st.Status().WALBytes)
	}
	if len(ends) < 2 {
		t.Fatal("corpus yielded too few feedback targets")
	}
	st.Close()

	raw, err := os.ReadFile(filepath.Join(live, walFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(live, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(raw); off++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%06d", off))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		sys2, st2, err := OpenStore(dir, core.Config{}, opts, noSetup(t))
		if err != nil {
			t.Fatalf("offset %d/%d: recovery refused: %v", off, len(raw), err)
		}
		want := 0
		for _, e := range ends {
			if int64(off) >= e {
				want++
			}
		}
		if !sameSig(states[want], stateSig(t, sys2, queries)) {
			t.Fatalf("offset %d/%d: recovered state is not the %d-mutation state", off, len(raw), want)
		}
		st2.Close()
		os.RemoveAll(dir)
	}
}

// TestFailedCommitReplay: abort records are read-only history. Binaries
// that write-ahead-logged left an op record plus a compensating abort
// record for a mutation that failed to apply; nothing writes the pair any
// more, but recovery and WAL shipping must keep skipping it in a data dir
// an old binary wrote. The WAL is hand-written here the way such a binary
// left it: op, failed op + its abort, op.
func TestFailedCommitReplay(t *testing.T) {
	c, setup := tinySetup(t)
	queries := c.Domain.Queries[:2]

	// Control: the two good ops committed normally, in memory.
	control, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	fbs := feedbackOps(control, 2)
	for _, fb := range fbs {
		if err := control.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	want := stateSig(t, control, queries)

	dir := t.TempDir()
	_, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	w, recs, err := wal.Open(filepath.Join(dir, walFile), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL already has %d records", len(recs))
	}
	failed := core.Feedback{Source: "no-such", SrcAttr: "a", MedName: "b"}
	for seq, fb := range []core.Feedback{fbs[0], failed, fbs[1]} {
		op := core.Op{Kind: core.OpFeedback, Feedback: &fb}
		data, err := json.Marshal(&op)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(wal.Entry{Seq: uint64(seq + 1), Kind: core.OpFeedback, Data: data}); err != nil {
			t.Fatal(err)
		}
		if fb.Source == failed.Source {
			if err := w.Append(wal.Entry{Seq: uint64(seq + 1), Kind: AbortKind}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Close()

	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	status := st2.Status()
	// 2 committed ops + 1 failed op + its abort record.
	if status.WALRecords != 4 {
		t.Errorf("WAL holds %d records, want 4 (op, op+abort, op)", status.WALRecords)
	}
	if status.Replayed != 2 {
		t.Errorf("replayed %d mutations, want 2 (aborted op skipped)", status.Replayed)
	}
	if !sameSig(want, stateSig(t, sys2, queries)) {
		t.Error("state after replaying around a failed commit differs")
	}
	// The shipped tail carries the pair verbatim for the follower's own
	// two-phase skip.
	frames, tail, err := st2.TailSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := wal.ReadFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Records != 4 || len(shipped) != 4 || shipped[2].Kind != AbortKind || shipped[2].Seq != shipped[1].Seq {
		t.Errorf("shipped tail = %d records (header %d), want the 4 frames with the op+abort pair intact", len(shipped), tail.Records)
	}
}

// TestRejectedMutationsLeaveWALUntouched: a mutation the core refuses
// never reaches the log — no op record, no abort record, no fsync — so a
// stream of rejected requests (DELETE of an unknown source, a POST with a
// duplicate name, whose op record would carry every row) cannot grow the
// WAL. Under the write-ahead protocol each of these appended two records
// that no checkpoint accounting ever saw.
func TestRejectedMutationsLeaveWALUntouched(t *testing.T) {
	dir := t.TempDir()
	_, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sys.SubmitFeedback(feedbackOps(sys, 1)[0]); err != nil {
		t.Fatal(err)
	}
	before := st.Status()
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sizeBefore := walSize()

	for i := 0; i < 100; i++ {
		if _, err := sys.RemoveSource("nope"); !errors.Is(err, core.ErrUnknownSource) {
			t.Fatalf("remove of unknown source: err = %v, want ErrUnknownSource", err)
		}
	}
	if _, err := sys.AddSources([]*schema.Source{sys.Corpus.Sources[0]}); err == nil {
		t.Fatal("duplicate-name add accepted")
	}

	after := st.Status()
	if after.WALRecords != before.WALRecords || after.LastSeq != before.LastSeq {
		t.Errorf("rejected mutations moved the WAL: %d records / seq %d -> %d records / seq %d",
			before.WALRecords, before.LastSeq, after.WALRecords, after.LastSeq)
	}
	if got := walSize(); got != sizeBefore {
		t.Errorf("WAL file grew from %d to %d bytes under rejected mutations", sizeBefore, got)
	}
}

// TestCrashBetweenAppendAndPublish: a record whose append fully fsynced
// but whose publish never happened is durable — recovery applies it,
// landing in the same state as a process that committed it normally.
func TestCrashBetweenAppendAndPublish(t *testing.T) {
	c, setup := tinySetup(t)
	queries := c.Domain.Queries[:2]

	crashDir, controlDir := t.TempDir(), t.TempDir()
	var fb core.Feedback
	for i, dir := range []string{crashDir, controlDir} {
		sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
		if err != nil {
			t.Fatal(err)
		}
		fb = feedbackOps(sys, 1)[0]
		if i == 1 { // control: commit normally
			if err := sys.SubmitFeedback(fb); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
	}

	// Simulate the crash: the op record reaches the crash WAL (fsynced)
	// but the process dies before apply/publish.
	op := core.Op{Kind: core.OpFeedback, Feedback: &fb}
	data, err := json.Marshal(&op)
	if err != nil {
		t.Fatal(err)
	}
	w, recs, err := wal.Open(filepath.Join(crashDir, walFile), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("crash WAL already has %d records", len(recs))
	}
	if err := w.Append(wal.Entry{Seq: 1, Kind: core.OpFeedback, Data: data}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	crashed, st1, err := OpenStore(crashDir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	if got := st1.Status().Replayed; got != 1 {
		t.Errorf("replayed %d, want 1", got)
	}
	control, st2, err := OpenStore(controlDir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !sameSig(stateSig(t, control, queries), stateSig(t, crashed, queries)) {
		t.Error("recovered state differs from a normally committed one")
	}
}

// TestCheckpointRotationSoak races readers against a writer that rotates
// the checkpoint on every commit. Run under -race (make crash-recovery):
// queries must keep serving consistent snapshots across rotations.
func TestCheckpointRotationSoak(t *testing.T) {
	dir := t.TempDir()
	c, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{NoSync: true, CheckpointEvery: 1}, setup)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	q := sqlparse.MustParse(c.Domain.Queries[0])
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := sys.QueryParsed(q); err != nil {
					t.Error(err)
					return
				}
				_ = st.Status()
			}
		}()
	}
	fbs := feedbackOps(sys, 4)
	for i := 0; i < 24; i++ {
		fb := fbs[i%len(fbs)]
		fb.Confirmed = i%2 == 0
		if err := sys.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	if got := st.Status(); got.CheckpointSeq == 0 {
		t.Errorf("rotation never checkpointed: %+v", got)
	}
	// The rotated snapshot alone reproduces the final state.
	want := stateSig(t, sys, c.Domain.Queries[:1])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{NoSync: true}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !sameSig(want, stateSig(t, sys2, c.Domain.Queries[:1])) {
		t.Error("state after rotation soak does not survive restart")
	}
}

// TestOpenStoreCorruptSnapshot: startup refuses a damaged snapshot
// instead of silently rebuilding (and double-applying the WAL tail).
func TestOpenStoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitFeedback(feedbackOps(sys, 1)[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, snapshotFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snap[:len(snap)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenStoreMidLogCorruptionRefused: flipped bytes inside the WAL
// (not a torn tail) must refuse startup with wal.ErrCorrupt.
func TestOpenStoreMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	_, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range feedbackOps(sys, 2) {
		if err := sys.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[12] ^= 0x40 // inside the first record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want wal.ErrCorrupt", err)
	}
}

// TestWriteFileAtomicPreservesOld: a failed write never replaces a valid
// file, and leaves no temp litter behind.
func TestWriteFileAtomicPreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	err := writeFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "good" {
		t.Fatalf("file = %q, %v; want intact original", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}
}

func BenchmarkFeedbackCommit(b *testing.B) {
	run := func(b *testing.B, sys *core.System) {
		fb := feedbackOps(sys, 1)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fb.Confirmed = i%2 == 0
			if err := sys.SubmitFeedback(fb); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) {
		_, setup := tinySetup(b)
		sys, err := setup()
		if err != nil {
			b.Fatal(err)
		}
		run(b, sys)
	})
	for _, bc := range []struct {
		name   string
		noSync bool
	}{{"wal-nosync", true}, {"wal-fsync", false}} {
		b.Run(bc.name, func(b *testing.B) {
			_, setup := tinySetup(b)
			sys, st, err := OpenStore(b.TempDir(), core.Config{},
				StoreOptions{NoSync: bc.noSync, CheckpointEvery: 1 << 30}, setup)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			run(b, sys)
		})
	}
}
