package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestSnapshotIsolationSoak hammers the snapshot serving core: reader
// goroutines query lock-free through System.Snapshot while one writer
// commits feedback and source add/remove. Readers alternate between the
// two approaches, so concurrent UDI-Consolidated queries race each
// epoch's consolidation memo against the committing writer. Run under
// -race this pins down the copy-on-write discipline end to end. Each
// reader asserts the two serving invariants on every load:
//
//   - epochs are monotonically non-decreasing (commits are totally
//     ordered and publication is atomic), and
//   - the snapshot is internally consistent: every source has exactly one
//     p-mapping per possible schema — readers can never observe a
//     mixed-epoch (PMed, Maps) pair.
func TestSnapshotIsolationSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := randomCorpus(rng)
	reg := obs.NewRegistry()
	sys, err := Setup(corpus, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Skip("random corpus has no frequent attributes")
	}
	queries := make([]*sqlparse.Query, 0, len(attrs))
	for _, a := range attrs {
		queries = append(queries, sqlparse.MustParse("SELECT "+a+" FROM t"))
	}

	const readers, iters = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < iters; i++ {
				sn := sys.Snapshot()
				if sn.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", sn.Epoch, lastEpoch)
					return
				}
				lastEpoch = sn.Epoch
				if len(sn.Maps) != len(sn.Corpus.Sources) {
					t.Errorf("snapshot %d: %d map entries for %d sources",
						sn.Epoch, len(sn.Maps), len(sn.Corpus.Sources))
					return
				}
				for _, src := range sn.Corpus.Sources {
					if got := len(sn.Maps[src.Name]); got != sn.Med.PMed.Len() {
						t.Errorf("snapshot %d: source %q has %d p-mappings for %d schemas",
							sn.Epoch, src.Name, got, sn.Med.PMed.Len())
						return
					}
				}
				a := UDI
				if i%2 == 1 {
					a = Consolidated
				}
				if _, err := sn.RunCtx(context.Background(), a, queries[(r+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	// The writer commits every kind of mutation, unsynchronized with the
	// readers: feedback (COW-conditioned p-mappings), a source add (fast
	// path or rebuild), and a source remove.
	commits := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := applyAnyFeedback(sys); err != nil {
			errs <- err
			return
		}
		commits++
		newSrc := schema.MustNewSource("soak-added", []string{"alpha", "bravo"},
			[][]string{{"v1", "v2"}, {"v3", "v4"}})
		if _, err := sys.AddSources([]*schema.Source{newSrc}); err != nil {
			errs <- err
			return
		}
		commits++
		if _, err := sys.RemoveSource("soak-added"); err != nil {
			errs <- err
			return
		}
		commits++
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Setup published epoch 1; every successful commit adds exactly one.
	// (A mutation that falls back to a full rebuild publishes extra
	// epochs only on its private rebuilt system, never on sys.)
	if got, want := sys.Epoch(), uint64(1+commits); got != want {
		t.Errorf("final epoch = %d, want %d (1 setup + %d commits)", got, want, commits)
	}
	if got := reg.Snapshot().Counters["snapshot.commits"]; got < int64(1+commits) {
		t.Errorf("snapshot.commits = %d, want >= %d", got, 1+commits)
	}
}

// TestSnapshotStableAcrossCommits checks the isolation property itself: a
// snapshot captured before a mutation keeps answering from its own epoch's
// state after the mutation commits.
func TestSnapshotStableAcrossCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := randomCorpus(rng)
	sys, err := Setup(corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Skip("random corpus has no frequent attributes")
	}
	q := sqlparse.MustParse("SELECT " + attrs[0] + " FROM t")

	old := sys.Snapshot()
	before, err := old.RunCtx(context.Background(), UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	oldSources := len(old.Corpus.Sources)

	newSrc := schema.MustNewSource("stable-added", []string{attrs[0], "zulu"},
		[][]string{{"v1", "v2"}, {"v3", "v4"}})
	if _, err := sys.AddSources([]*schema.Source{newSrc}); err != nil {
		t.Fatal(err)
	}

	if sys.Epoch() <= old.Epoch {
		t.Fatalf("commit did not advance the epoch: %d -> %d", old.Epoch, sys.Epoch())
	}
	if got := len(old.Corpus.Sources); got != oldSources {
		t.Fatalf("held snapshot's corpus changed: %d -> %d sources", oldSources, got)
	}
	after, err := old.RunCtx(context.Background(), UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Ranked) != len(before.Ranked) {
		t.Fatalf("held snapshot's answers changed after commit: %d -> %d",
			len(before.Ranked), len(after.Ranked))
	}
	for i := range before.Ranked {
		if before.Ranked[i].Prob != after.Ranked[i].Prob {
			t.Fatalf("answer %d prob changed on the held snapshot: %f -> %f",
				i, before.Ranked[i].Prob, after.Ranked[i].Prob)
		}
	}
}

// TestFailedCommitPublishesNothing checks commits are all-or-nothing:
// feedback addressed to an unknown source must leave the epoch untouched.
func TestFailedCommitPublishesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys, err := Setup(randomCorpus(rng), Config{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := sys.Epoch()
	err = sys.SubmitFeedback(Feedback{Source: "no-such-source", SrcAttr: "a", MedName: "b", Confirmed: true})
	if err == nil {
		t.Fatal("feedback for unknown source succeeded")
	}
	if !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("err = %v, want ErrUnknownSource", err)
	}
	if got := sys.Epoch(); got != epoch {
		t.Errorf("failed commit advanced the epoch: %d -> %d", epoch, got)
	}
}

// TestConsolidationOnFirstUse: setup, every mutation path and UDI queries
// never build consolidated p-mappings; the first UDI-Consolidated query
// of an epoch builds them exactly once, even when two race for it.
func TestConsolidationOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := randomCorpus(rng)
	reg := obs.NewRegistry()
	sys, err := Setup(corpus, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Fatal("random corpus has no frequent attributes")
	}
	q := sqlparse.MustParse("SELECT " + attrs[0] + " FROM t")
	materializations := func() int64 { return reg.Counter("consolidate.materializations").Value() }

	if err := applyAnyFeedback(sys); err != nil {
		t.Fatal(err)
	}
	added := schema.MustNewSource("lazy-added", []string{"alpha", "bravo"}, [][]string{{"v1", "v2"}})
	if _, err := sys.AddSources([]*schema.Source{added}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RemoveSource("lazy-added"); err != nil {
		t.Fatal(err)
	}
	rebuild := ShardChange{Domain: sys.Corpus.Domain, Med: sys.Med, Target: sys.Target, Maps: sys.Maps}
	for _, src := range sys.Corpus.Sources {
		rebuild.Sources = append(rebuild.Sources, src.Name)
	}
	if err := sys.ShardRestructure(rebuild); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := sys.QueryParsed(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := materializations(); got != 0 {
		t.Fatalf("consolidate.materializations = %d before any UDI-Consolidated query, want 0", got)
	}

	sn := sys.Snapshot()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := sn.RunCtx(context.Background(), Consolidated, q)
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(Consolidated, q); err != nil {
		t.Fatal(err)
	}
	if got := materializations(); got != 1 {
		t.Fatalf("consolidate.materializations = %d after three UDI-Consolidated queries of one epoch, want 1", got)
	}
}
