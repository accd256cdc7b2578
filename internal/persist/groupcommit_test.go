package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/reference"
	"udi/internal/sqlparse"
	"udi/internal/wal"
)

// TestGroupCommitRejectsWithoutLogging: a failing feedback op is rejected
// before it is logged — the WAL holds only the committed ops, no record
// for the failure. (Reading the abort records older binaries wrote is
// covered by TestFailedCommitReplay.)
func TestGroupCommitRejectsWithoutLogging(t *testing.T) {
	dir := t.TempDir()
	c, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{}, setup)
	if err != nil {
		t.Fatal(err)
	}
	fbs := feedbackOps(sys, 2)
	if err := sys.SubmitFeedback(fbs[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitFeedback(core.Feedback{Source: "no-such", SrcAttr: "a", MedName: "b"}); err == nil {
		t.Fatal("feedback for unknown source succeeded")
	}
	if err := sys.SubmitFeedback(fbs[1]); err != nil {
		t.Fatal(err)
	}
	queries := c.Domain.Queries[:2]
	want := stateSig(t, sys, queries)
	if got := st.Status().WALRecords; got != 2 {
		t.Errorf("WAL holds %d records, want 2 (rejected op never logged)", got)
	}
	st.Close()

	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Status().Replayed; got != 2 {
		t.Errorf("replayed %d mutations, want 2", got)
	}
	if !sameSig(want, stateSig(t, sys2, queries)) {
		t.Error("state after replaying around a rejected op differs")
	}
}

// TestKillAtEveryBatchOffset is the group-commit crash matrix: a batch of
// ops made durable by one wal.Append barrier, with the process killed at
// every byte offset of the write. Every cut must recover to exactly the
// state after the longest clean prefix of the batch — the batched frames
// are ordinary WAL records, so a torn tail drops only the ops that never
// became fully durable, never a committed one and never the whole batch.
func TestKillAtEveryBatchOffset(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	c, setup := tinySetup(t)
	opts := StoreOptions{NoSync: true, CheckpointEvery: 1 << 30}
	sys, st, err := OpenStore(live, core.Config{}, opts, setup)
	if err != nil {
		t.Fatal(err)
	}
	fbs := feedbackOps(sys, 3)
	if len(fbs) < 3 {
		t.Fatal("corpus yielded too few feedback targets")
	}
	queries := c.Domain.Queries[:2]
	st.Close() // WAL empty: the batch below is the only content

	// Control: the committed state after each clean prefix, applied
	// serially to an identical in-memory system.
	control, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	states := [][]answerSig{stateSig(t, control, queries)}
	for _, fb := range fbs {
		if err := control.SubmitFeedback(fb); err != nil {
			t.Fatal(err)
		}
		states = append(states, stateSig(t, control, queries))
	}

	// Write the whole batch through the real group-commit barrier: one
	// Append call, one contiguous write.
	w, recs, err := wal.Open(filepath.Join(live, walFile), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("live WAL already has %d records", len(recs))
	}
	entries := make([]wal.Entry, len(fbs))
	var ends []int64
	end := int64(0)
	for i := range fbs {
		op := core.Op{Kind: core.OpFeedback, Feedback: &fbs[i]}
		data, err := json.Marshal(&op)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = wal.Entry{Seq: uint64(i + 1), Kind: core.OpFeedback, Data: data}
		// frame: len+CRC header, seq, kind length, kind, payload.
		end += 4 + 4 + 8 + 1 + int64(len(core.OpFeedback)) + int64(len(data))
		ends = append(ends, end)
	}
	if err := w.Append(entries...); err != nil {
		t.Fatal(err)
	}
	w.Close()

	raw, err := os.ReadFile(filepath.Join(live, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != end {
		t.Fatalf("WAL is %d bytes, frame arithmetic says %d", len(raw), end)
	}
	snap, err := os.ReadFile(filepath.Join(live, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(raw); off++ {
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
		if got := st2.Status().Replayed; got != want {
			t.Fatalf("offset %d/%d: replayed %d ops, want %d", off, len(raw), got, want)
		}
		if !sameSig(states[want], stateSig(t, sys2, queries)) {
			t.Fatalf("offset %d/%d: recovered state is not the %d-op prefix state", off, len(raw), want)
		}
		st2.Close()
		os.RemoveAll(dir)
	}
	_ = sys
}

// TestFeedbackSoakMatchesSerialOracle is the mixed read/write soak: many
// writers group-committing feedback while readers query concurrently,
// then the WAL — the authoritative commit order — is replayed, one op at
// a time, into the serial reference oracle (internal/reference). The
// soaked system's p-mappings and consolidated p-mappings must be deeply
// identical to the oracle's, and its answers must match the oracle's at
// 1e-12: batching and scoped invalidation may only change barriers and
// cache traffic, never any committed state. Run under -race by `make
// soak`.
func TestFeedbackSoakMatchesSerialOracle(t *testing.T) {
	dir := t.TempDir()
	c, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{},
		StoreOptions{NoSync: true, CheckpointEvery: 1 << 30}, setup)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, readers = 8, 25, 4
	fbs := feedbackOps(sys, 12)
	if len(fbs) == 0 {
		t.Fatal("no feedback targets")
	}
	queries := c.Domain.Queries[:3]
	qs := make([]*sqlparse.Query, len(queries))
	for i, s := range queries {
		qs[i] = sqlparse.MustParse(s)
	}

	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := sys.QueryParsed(qs[(r+i)%len(qs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fb := fbs[(w+i)%len(fbs)]
				fb.Confirmed = (w+i)%2 == 0
				if err := sys.SubmitFeedback(fb); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if t.Failed() {
		return
	}
	want := stateSig(t, sys, queries)
	if got := st.Status().WALRecords; got != writers*perWriter {
		t.Fatalf("WAL holds %d records, want %d", got, writers*perWriter)
	}
	st.Close()

	// The oracle replays the WAL's exact commit order serially.
	oracle, err := reference.Setup(c.Corpus, reference.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w, recs, err := wal.Open(filepath.Join(dir, walFile), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(recs) != writers*perWriter {
		t.Fatalf("WAL replay found %d records, want %d", len(recs), writers*perWriter)
	}
	lastSeq := uint64(0)
	for _, rec := range recs {
		if rec.Seq != lastSeq+1 {
			t.Fatalf("WAL seq %d follows %d; commit order has a gap", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		var op core.Op
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			t.Fatal(err)
		}
		if op.Kind != core.OpFeedback || op.Feedback == nil {
			t.Fatalf("unexpected WAL op %q", op.Kind)
		}
		if err := oracle.Feedback(reference.Feedback(*op.Feedback)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(oracle.Maps, sys.Maps) {
		t.Error("soaked group-commit p-mappings differ from the serial oracle replay")
	}
	if !reflect.DeepEqual(oracle.ConsMaps, sys.Snapshot().ConsMaps()) {
		t.Error("soaked group-commit consolidated p-mappings differ from the serial oracle replay")
	}
	// The reference has no query engine; answer over its artifacts with a
	// fresh, cold one.
	e := answer.NewEngine(oracle.Corpus)
	got := answersSig(t, queries, func(q *sqlparse.Query) (*answer.ResultSet, error) {
		return e.AnswerPMed(answer.PMedInput{PMed: oracle.Med.PMed, Maps: oracle.Maps}, q)
	})
	if !sameSig(want, got) {
		t.Error("soaked group-commit answers differ from the serial oracle replay")
	}
}

// BenchmarkFeedbackThroughput measures committed feedback ops per second
// against a durable fsyncing store, across writer concurrencies, with
// and without concurrent readers.
func BenchmarkFeedbackThroughput(b *testing.B) {
	run := func(b *testing.B, writers int, withQueries bool) {
		c, setup := tinySetup(b)
		sys, st, err := OpenStore(b.TempDir(), core.Config{},
			StoreOptions{CheckpointEvery: 1 << 30}, setup)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		fbs := feedbackOps(sys, 8)
		if len(fbs) == 0 {
			b.Fatal("no feedback targets")
		}
		stop := make(chan struct{})
		var rg sync.WaitGroup
		if withQueries {
			q := sqlparse.MustParse(c.Domain.Queries[0])
			for r := 0; r < 4; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := sys.QueryParsed(q); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					fb := fbs[i%int64(len(fbs))]
					fb.Confirmed = i%2 == 0
					if err := sys.SubmitFeedback(fb); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		close(stop)
		rg.Wait()
	}
	for _, writers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("group/writers-%d", writers), func(b *testing.B) {
			run(b, writers, false)
		})
	}
	b.Run("group/writers-16-with-queries", func(b *testing.B) {
		run(b, 16, true)
	})
}
