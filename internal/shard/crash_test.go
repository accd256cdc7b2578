package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"udi/internal/core"
	"udi/internal/schema"
)

var errInjected = errors.New("injected crash")

// openForTest reopens a durable sharded system, failing the test on any
// recovery error.
func openForTest(t *testing.T, dir string, shards int) *System {
	t.Helper()
	sh, err := Open(dir, core.Config{}, Options{Shards: shards, NoSync: true},
		func() (*schema.Corpus, error) { return nil, fmt.Errorf("no corpus: fresh init not expected") })
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return sh
}

// legacyJournal rewrites dir's one-op journal into the pre-batch record
// form.
func legacyJournal(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	var rec map[string]json.RawMessage
	var ops []json.RawMessage
	if err := json.Unmarshal(data, &rec); err == nil {
		err = json.Unmarshal(rec["ops"], &ops)
	}
	if err != nil || len(ops) != 1 {
		t.Fatalf("journal does not hold exactly one op (%d, err %v)", len(ops), err)
	}
	rec["op"] = ops[0]
	delete(rec, "ops")
	if data, err = json.Marshal(rec); err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Fatalf("rewrite journal: %v", err)
	}
}

// TestCrashRecoveryMultiShardOps injects a crash at every stage of the
// coordinator's multi-shard commit protocol — right after the journal
// write, after the shard mutation, after the checkpoints, and after the
// manifest rewrite — for both add and remove ops, then recovers and
// verifies the reopened system differentially against an oracle that
// applied the op. The journal makes every one of these crashes roll
// forward: the mutation is atomic across shards.
func TestCrashRecoveryMultiShardOps(t *testing.T) {
	stages := []string{"journal", "applied", "checkpointed", "manifest"}
	ops := []string{"add", "remove"}
	for _, opKind := range ops {
		for _, stage := range stages {
			t.Run(opKind+"_"+stage, func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				corpus := randomShardCorpus(rng)
				dir := t.TempDir()
				const shards = 4

				oracle, err := core.Setup(corpus, core.Config{})
				if err != nil {
					t.Fatalf("oracle setup: %v", err)
				}
				sh, err := New(corpus, core.Config{}, Options{Shards: shards, DataDir: dir, NoSync: true})
				if err != nil {
					t.Fatalf("sharded setup: %v", err)
				}
				// Some shard-local feedback first, so recovery also has to
				// replay per-shard WALs, not just redo the journal.
				nextID := 0
				for i := 0; i < 2; i++ {
					mutRNG := rand.New(rand.NewSource(int64(i)))
					mutateBoth(t, mutRNG, oracle, sh, &nextID)
				}

				sh.crashAt = func(s string) error {
					if s == stage {
						return errInjected
					}
					return nil
				}
				var oerr, serr error
				switch opKind {
				case "add":
					src := randomSource(rng, "xadd", []string{"alpha", "bravo", "carrot"})
					_, oerr = oracle.AddSources([]*schema.Source{src})
					_, serr = sh.AddSources([]*schema.Source{src})
				case "remove":
					name := oracle.Corpus.Sources[0].Name
					_, oerr = oracle.RemoveSource(name)
					_, serr = sh.RemoveSource(name)
				}
				if oerr != nil {
					t.Fatalf("oracle op: %v", oerr)
				}
				if !errors.Is(serr, errInjected) {
					t.Fatalf("sharded op error = %v, want injected crash", serr)
				}
				if err := sh.Close(); err != nil {
					t.Fatalf("close crashed system: %v", err)
				}
				if stage == "journal" {
					// Recover this one from the record form older builds
					// wrote — a single "op", no "ops" — which Open keeps
					// reading.
					legacyJournal(t, dir)
				}

				rec := openForTest(t, dir, shards)
				defer rec.Close()
				qrng := rand.New(rand.NewSource(99))
				compareSystems(t, "recovered "+opKind+"/"+stage, oracle, rec,
					trialQueries(qrng, oracle.Corpus))
			})
		}
	}
}

// TestCrashRecoveryTornFeedbackWAL kills one shard's store mid-commit:
// a feedback record's WAL append is torn (simulated by truncating the
// owning shard's WAL tail), so recovery must drop the half-written
// record and serve the pre-feedback state — which the oracle without
// that feedback reproduces exactly.
func TestCrashRecoveryTornFeedbackWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := randomShardCorpus(rng)
	dir := t.TempDir()
	const shards = 4

	oracle, err := core.Setup(corpus, core.Config{})
	if err != nil {
		t.Fatalf("oracle setup: %v", err)
	}
	sh, err := New(corpus, core.Config{}, Options{Shards: shards, DataDir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("sharded setup: %v", err)
	}

	// Find a correspondence to give feedback on; submit to the sharded
	// system ONLY — the oracle stays at the pre-feedback state the torn
	// WAL must recover to.
	src := oracle.Corpus.Sources[0]
	var fb core.Feedback
	found := false
	for l, pm := range oracle.Maps[src.Name] {
		for _, g := range pm.Groups {
			if len(g.Corrs) > 0 {
				c := g.Corrs[0]
				fb = core.Feedback{Source: src.Name, SrcAttr: c.SrcAttr,
					SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: true}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("corpus produced no correspondences")
	}
	if err := sh.SubmitFeedback(fb); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the tail of the owner shard's WAL: the feedback record is now
	// half on disk, as if the process died inside the append.
	owner := ShardOf(src.Name, shards)
	wal := filepath.Join(shardDir(dir, owner), "wal.log")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatalf("owner WAL: %v", err)
	}
	if st.Size() < 4 {
		t.Fatalf("owner WAL only %d bytes; feedback record missing", st.Size())
	}
	if err := os.Truncate(wal, st.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	rec := openForTest(t, dir, shards)
	defer rec.Close()
	qrng := rand.New(rand.NewSource(3))
	compareSystems(t, "torn WAL", oracle, rec, trialQueries(qrng, oracle.Corpus))
}

// TestDurableRoundTrip is the no-crash baseline: mutate, close cleanly,
// reopen, and the recovered system still matches the oracle bit-for-bit.
func TestDurableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	corpus := randomShardCorpus(rng)
	dir := t.TempDir()
	const shards = 4

	oracle, err := core.Setup(corpus, core.Config{})
	if err != nil {
		t.Fatalf("oracle setup: %v", err)
	}
	sh, err := New(corpus, core.Config{}, Options{Shards: shards, DataDir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("sharded setup: %v", err)
	}
	nextID := 0
	for i := 0; i < 5; i++ {
		mutRNG := rand.New(rand.NewSource(int64(100 + i)))
		mutateBoth(t, mutRNG, oracle, sh, &nextID)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec := openForTest(t, dir, shards)
	defer rec.Close()
	compareSystems(t, "round trip", oracle, rec, trialQueries(rng, oracle.Corpus))

	// The shard count is baked into the layout.
	if _, err := Open(dir, core.Config{}, Options{Shards: shards + 1},
		func() (*schema.Corpus, error) { return nil, nil }); err == nil {
		t.Fatal("reopening with a different shard count should fail")
	}
}
