package shard

import (
	"context"
	"math/rand"
	"testing"

	"udi/internal/core"
	"udi/internal/obs"
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
