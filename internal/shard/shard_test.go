package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestShardOf pins the assignment function: deterministic, stable across
// calls, in range, and actually spreading sources (the standard sNN names
// must not all land on one shard of 8 — a regression here would silently
// serialize the fan-out).
func TestShardOf(t *testing.T) {
	used := map[int]bool{}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("s%02d", i)
		got := ShardOf(name, 8)
		if got < 0 || got >= 8 {
			t.Fatalf("ShardOf(%q, 8) = %d, out of range", name, got)
		}
		if again := ShardOf(name, 8); again != got {
			t.Fatalf("ShardOf(%q, 8) unstable: %d then %d", name, got, again)
		}
		used[got] = true
	}
	if len(used) < 2 {
		t.Fatalf("32 standard names all hash to %v of 8 shards", used)
	}
	if ShardOf("anything", 1) != 0 {
		t.Fatal("single shard must own everything")
	}
}

// TestEpochVector pins the epoch semantics: a feedback commit bumps only
// the owning shard's epoch, a source addition is visible on every shard
// (the mediation push commits everywhere), and the scalar Epoch is the
// vector sum.
func TestEpochVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	corpus := randomShardCorpus(rng)
	sh, err := New(corpus, core.Config{}, Options{Shards: 4})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	before := sh.View().EpochVector()
	if len(before) != 4 {
		t.Fatalf("epoch vector has %d entries, want 4", len(before))
	}

	// Feedback: find any correspondence on any shard.
	var fb core.Feedback
	found := false
	v := sh.View()
	for _, leg := range v.legs {
		sn := leg.(localLeg).sn
		for _, src := range sn.Corpus.Sources {
			for l, pm := range sn.Maps[src.Name] {
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
			if found {
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
	after := sh.View().EpochVector()
	owner := ShardOf(fb.Source, 4)
	for i := range after {
		bumped := after[i] != before[i]
		if i == owner && !bumped {
			t.Fatalf("feedback to shard %d did not bump its epoch: %v -> %v", owner, before, after)
		}
		if i != owner && bumped {
			t.Fatalf("feedback to shard %d bumped shard %d: %v -> %v", owner, i, before, after)
		}
	}

	// A source addition touches every shard (mediation push), so every
	// epoch moves and the scalar token strictly increases.
	src := randomSource(rng, "xepoch", []string{"alpha", "bravo"})
	if _, err := sh.AddSources([]*schema.Source{src}); err != nil {
		t.Fatalf("add: %v", err)
	}
	final := sh.View()
	for i, e := range final.EpochVector() {
		if e <= after[i] {
			t.Fatalf("add source left shard %d epoch at %d (was %d)", i, e, after[i])
		}
	}
	var sum uint64
	for _, e := range final.EpochVector() {
		sum += e
	}
	if final.Epoch() != sum {
		t.Fatalf("Epoch() = %d, want vector sum %d", final.Epoch(), sum)
	}
}

// TestEmptyShards serves a 1-source corpus from 8 shards: 7 shards hold
// nothing and must still answer (with the exact no-op identity the merge
// depends on), and the durable layout must not materialize store files
// for them.
func TestEmptyShards(t *testing.T) {
	src := schema.MustNewSource("only", []string{"alpha", "bravo"},
		[][]string{{"v1", "v2"}, {"v3", "v4"}})
	corpus, err := schema.NewCorpus("solo", []*schema.Source{src})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Setup(corpus, core.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	sh, err := New(corpus, core.Config{}, Options{Shards: 8, DataDir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	defer sh.Close()
	q := sqlparse.MustParse("SELECT alpha FROM t")
	compareSystems(t, "single source on 8 shards", oracle, sh, []*sqlparse.Query{q})

	stores := 0
	for _, s := range sh.shards {
		if s.(*Local).Store() != nil {
			stores++
		}
	}
	if stores != 1 {
		t.Fatalf("%d shard stores open, want 1 (only the owner persists)", stores)
	}
}

// TestCandidatesMerged checks the merged feedback queue: ranked by
// uncertainty descending with the session's tiebreak, truncated to the
// limit, and covering sources from more than one shard when they exist.
func TestCandidatesMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := randomShardCorpus(rng)
	sh, err := New(corpus, core.Config{}, Options{Shards: 4})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	v := sh.View()
	all, err := v.Candidates(context.Background(), 0)
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool {
		if all[i].Uncertainty != all[j].Uncertainty {
			return all[i].Uncertainty > all[j].Uncertainty
		}
		if all[i].Source != all[j].Source {
			return all[i].Source < all[j].Source
		}
		if all[i].SrcAttr != all[j].SrcAttr {
			return all[i].SrcAttr < all[j].SrcAttr
		}
		return all[i].MedIdx < all[j].MedIdx
	}) {
		t.Fatal("merged candidates not in uncertainty order")
	}
	if len(all) > 3 {
		top, err := v.Candidates(context.Background(), 3)
		if err != nil || len(top) != 3 {
			t.Fatalf("limit 3 returned %d candidates", len(top))
		}
		for i := range top {
			if top[i] != all[i] {
				t.Fatalf("limited candidate %d = %+v, want prefix of full list %+v", i, top[i], all[i])
			}
		}
	}
}

// TestQueryCancellation pins context propagation through the fan-out: an
// already-cancelled context must surface the cancellation, not answers.
func TestQueryCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := randomShardCorpus(rng)
	sh, err := New(corpus, core.Config{}, Options{Shards: 4})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Skip("no frequent attributes")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := sqlparse.MustParse("SELECT " + attrs[0] + " FROM t")
	if _, err := sh.View().RunCtx(ctx, core.UDI, q); err == nil {
		t.Fatal("cancelled context produced answers")
	}
}

// fakeShard is a Shard whose read leg a test scripts; the gather tests
// drive the coordinator's View through it with no core, store or HTTP
// involved.
type fakeShard struct {
	Shard
	run func(ctx context.Context) (*answer.ResultSet, error)
}

func (f fakeShard) Pin() Leg { return fakeLeg{run: f.run} }

type fakeLeg struct {
	Leg
	run func(ctx context.Context) (*answer.ResultSet, error)
}

func (l fakeLeg) Run(ctx context.Context, _ core.Approach, _ *sqlparse.Query, _ answer.Detail) (*answer.ResultSet, error) {
	return l.run(ctx)
}

func fakeView(order []string, runs ...func(ctx context.Context) (*answer.ResultSet, error)) *View {
	s := &System{}
	for _, run := range runs {
		s.shards = append(s.shards, fakeShard{run: run})
	}
	s.meta.Store(&servingMeta{order: order})
	return s.View()
}

// TestGatherFailureCancelsPeersAndNeverMerges pins the one gather's
// failure contract: a failing leg cancels its peers, the error surfaced is
// the first real one in shard order — not the context.Canceled the
// failure itself caused on an earlier shard — and no result set comes
// back even though another leg produced its part.
func TestGatherFailureCancelsPeersAndNeverMerges(t *testing.T) {
	errFirst, errSecond := errors.New("leg 1 failed"), errors.New("leg 3 failed")
	started := make(chan struct{})
	untilCancelled := func(err error) func(context.Context) (*answer.ResultSet, error) {
		return func(ctx context.Context) (*answer.ResultSet, error) {
			select {
			case <-ctx.Done():
				if err != nil {
					return nil, err
				}
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("peer was never cancelled")
			}
		}
	}
	v := fakeView([]string{"a"},
		untilCancelled(nil), // shard 0: reports the cancellation it was sent
		func(context.Context) (*answer.ResultSet, error) { <-started; return nil, errFirst },
		func(context.Context) (*answer.ResultSet, error) {
			defer close(started) // its part is complete before any leg fails
			return &answer.ResultSet{Instances: []answer.Instance{{Source: "a"}}}, nil
		},
		untilCancelled(errSecond), // shard 3: a second real error, later in shard order
	)
	rs, err := v.RunCtx(context.Background(), core.UDI, nil)
	if err != errFirst {
		t.Fatalf("gather surfaced %v, want the first real error in shard order (%v)", err, errFirst)
	}
	if rs != nil {
		t.Fatalf("gather merged an incomplete part set: %+v", rs)
	}
}

// TestLoneLegResult pins the one-shard dispatch: a lone leg carrying
// only the merge inputs is ranked by the merge.
func TestLoneLegResult(t *testing.T) {
	inputs := &answer.ResultSet{
		Tuples:    []answer.Tuple{{Key: answer.TupleKey([]string{"v"}), Values: []string{"v"}}},
		PerSource: []answer.SourceTupleProbs{{Source: "a", IDs: []int32{0}, Probs: []float64{0.5}}},
	}
	got, err := fakeView([]string{"a"}, func(context.Context) (*answer.ResultSet, error) { return inputs, nil }).
		RunCtx(context.Background(), core.UDI, nil)
	if err != nil || len(got.Ranked) != 1 || got.Ranked[0].Prob != 0.5 {
		t.Fatalf("lone unranked leg: got %+v (err %v), want it ranked by the merge", got, err)
	}
}
