package shard

import (
	"context"
	"math/rand"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestQueryMetricsFollowRanking pins who records what on a query: a
// sharded query scans once per leg and ranks once, in the coordinator's
// merge (shard.merge_seconds), so no leg records a ranking metric; the
// single core records query.rank_seconds and query.tuples around its own
// ranking.
func TestQueryMetricsFollowRanking(t *testing.T) {
	corpus := randomShardCorpus(rand.New(rand.NewSource(13)))
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Fatal("no frequent attributes")
	}
	q := sqlparse.MustParse("SELECT " + attrs[0] + " FROM t")
	reg := obs.NewRegistry()
	cfg := core.Config{Obs: reg}

	sh, err := New(corpus, cfg, Options{Shards: 2})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	v := sh.View()
	reg.Reset()
	if _, err := v.RunCtx(context.Background(), core.UDI, q); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["query.count"]; got != int64(len(v.legs)) {
		t.Errorf("sharded: query.count = %d, want one scan per leg (%d)", got, len(v.legs))
	}
	if got := snap.Histograms["shard.merge_seconds"].Count; got != 1 {
		t.Errorf("sharded: shard.merge_seconds count = %d, want 1", got)
	}
	for _, name := range []string{"query.rank_seconds", "query.tuples"} {
		if got := snap.Histograms[name].Count; got != 0 {
			t.Errorf("sharded: %s count = %d, want 0 (legs do not rank)", name, got)
		}
	}

	single, err := core.Setup(corpus, cfg)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	sn := single.Snapshot()
	reg.Reset()
	if _, err := sn.RunCtx(context.Background(), core.UDI, q); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	for _, name := range []string{"query.rank_seconds", "query.tuples"} {
		if got := snap.Histograms[name].Count; got != 1 {
			t.Errorf("single core: %s count = %d, want 1", name, got)
		}
	}
	if got := snap.Histograms["shard.merge_seconds"].Count; got != 0 {
		t.Errorf("single core: shard.merge_seconds count = %d, want 0", got)
	}
}

// TestFastAddsAreNotSetups: a fast add builds only the newcomers'
// p-mappings (core.MapUnder), so ten fast batches on a 4-shard system
// leave the coordinator's setup.count where shard.New left it.
func TestFastAddsAreNotSetups(t *testing.T) {
	c := datagen.MustGenerate(datagen.Car(102)).Corpus
	held := len(c.Sources) - 40
	corpus, err := schema.NewCorpus(c.Domain, c.Sources[:held])
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys, err := New(corpus, core.Config{Obs: reg}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Counter("setup.count").Value()
	for i := held; i < len(c.Sources); i += 4 {
		fast, err := sys.AddSources(c.Sources[i : i+4])
		if err != nil {
			t.Fatal(err)
		}
		if !fast {
			t.Fatalf("batch at %d took the rebuild path", i)
		}
	}
	if after := reg.Counter("setup.count").Value(); after != before {
		t.Fatalf("setup.count went %d -> %d across ten fast adds", before, after)
	}
}
