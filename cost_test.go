package udi_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/shard"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// carServe sets the 817-source Car corpus (seed 102) up on one worker and
// returns its serving snapshot with the domain's ten evaluation queries.
func carServe(tb testing.TB) (*core.Snapshot, []*sqlparse.Query) {
	tb.Helper()
	spec := datagen.Car(102)
	gen := datagen.MustGenerate(spec)
	sys, err := core.Setup(gen.Corpus, core.Config{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return sys.Snapshot(), parseAll(spec.Queries)
}

// carShards sets the Car corpus (seed 102) up over four shards, each
// scanning on one worker — in process (shard.New), or as four httptest
// shard hosts behind shardrpc.NewCoordinator when networked — and
// returns the serving view with the domain's ten evaluation queries.
// hosts are the networked hosts' registries, nil in process.
func carShards(tb testing.TB, networked bool) (v httpapi.View, queries []*sqlparse.Query, hosts []*obs.Registry) {
	tb.Helper()
	spec := datagen.Car(102)
	corpus := datagen.MustGenerate(spec).Corpus
	cfg := core.Config{Parallelism: 1, Obs: obs.NewRegistry()}
	var be httpapi.Backend
	if networked {
		addrs := make([]string, 4)
		for i := range addrs {
			reg := obs.NewRegistry()
			h, err := shardrpc.NewHost(core.Config{Parallelism: 1, Obs: reg}, shardrpc.HostOptions{Obs: reg})
			if err != nil {
				tb.Fatal(err)
			}
			srv := httptest.NewServer(h.Handler())
			tb.Cleanup(srv.Close)
			tb.Cleanup(func() { h.Close() })
			addrs[i], hosts = srv.URL, append(hosts, reg)
		}
		co, err := shardrpc.NewCoordinator(corpus, cfg, addrs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
		if err != nil {
			tb.Fatal(err)
		}
		be = co
	} else {
		sh, err := shard.New(corpus, cfg, shard.Options{Shards: 4})
		if err != nil {
			tb.Fatal(err)
		}
		be = httpapi.ShardBackend(sh)
	}
	v, err := be.View()
	if err != nil {
		tb.Fatal(err)
	}
	return v, parseAll(spec.Queries), hosts
}

// scaleQueries is the query mix of the repository benchmark's
// setup.scale5k workload (bench/workloads.go) over the scale corpus's
// head attributes.
var scaleQueries = []string{
	"SELECT title, director FROM Scale WHERE title LIKE 'v7%'",
	"SELECT title FROM Scale WHERE director LIKE 'v8%'",
	"SELECT title, runtime FROM Scale WHERE runtime LIKE 'v2%'",
	"SELECT director, language FROM Scale WHERE language LIKE 'v6%'",
	"SELECT title, country FROM Scale WHERE country LIKE 'v9%'",
	"SELECT title, director, runtime FROM Scale WHERE title LIKE 'v3%'",
	"SELECT runtime FROM Scale WHERE director = 'v100'",
	"SELECT title, language FROM Scale WHERE language LIKE 'v5%'",
	"SELECT director FROM Scale WHERE title LIKE 'v42%'",
	"SELECT title, director FROM Scale WHERE runtime LIKE 'v4%' AND director LIKE 'v3%'",
}

// scaleServe sets the 5 000-source scale corpus (seed 102) up on one
// worker and returns its serving snapshot with scaleQueries.
func scaleServe(tb testing.TB) (*core.Snapshot, []*sqlparse.Query) {
	tb.Helper()
	sys, err := core.Setup(datagen.ScaleCorpus(5000, 102), core.Config{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return sys.Snapshot(), parseAll(scaleQueries)
}

func parseAll(qs []string) []*sqlparse.Query {
	out := make([]*sqlparse.Query, len(qs))
	for i, s := range qs {
		out[i] = sqlparse.MustParse(s)
	}
	return out
}

// carServeAllocs is the allocation count of one warm by-table pass over
// the Car mix on one worker (carServe), measured when parts became flat
// tuple tables and runs. The gate allows 2% above it: allocation counts
// do not swing from run to run as wall time does, so a rise beyond that
// is a cost the serving path took on.
const carServeAllocs = 3823

// TestServeQueryAllocs pins the allocations of what /v1/query serves:
// Snapshot.RunCtx by table over the ten Car queries, plans warm, one
// worker.
func TestServeQueryAllocs(t *testing.T) {
	sn, queries := carServe(t)
	run := func() {
		for _, q := range queries {
			if _, err := sn.RunCtx(context.Background(), core.UDI, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the plans and the indexes
	got := testing.AllocsPerRun(2, run)
	if ceiling := carServeAllocs * 1.02; got > ceiling {
		t.Fatalf("a warm pass over the Car mix allocates %.0f times, above the ceiling %.0f (%d + 2%%)", got, ceiling, carServeAllocs)
	}
	t.Logf("a warm pass over the Car mix allocates %.0f times (pinned %d)", got, carServeAllocs)
}

// shardServeAllocs is the allocation count of one warm by-table pass
// over the Car mix through four in-process shards that scan on one
// worker each (carShards), measured when parts became flat tuple tables
// and runs. The gate allows 2% above it.
const shardServeAllocs = 8699

// TestShardQueryAllocs pins the allocations of what /v1/query serves
// over four in-process shards: View.RunCtx by table over the ten Car
// queries, plans warm — four leg scans and the merge.
func TestShardQueryAllocs(t *testing.T) {
	v, queries, _ := carShards(t, false)
	run := func() {
		for _, q := range queries {
			if _, err := v.RunCtx(context.Background(), core.UDI, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	got := testing.AllocsPerRun(2, run)
	if ceiling := shardServeAllocs * 1.02; got > ceiling {
		t.Fatalf("a warm 4-shard pass over the Car mix allocates %.0f times, above the ceiling %.0f (%d + 2%%)", got, ceiling, shardServeAllocs)
	}
	t.Logf("a warm 4-shard pass over the Car mix allocates %.0f times (pinned %d)", got, shardServeAllocs)
}

// carFrameBytes is the size of the partial-result frames four shard
// hosts send for one by-table pass over the Car mix: every leg's frame
// for every query, summed. A frame is a function of its part, so the
// count is exact; it moves only when the frame format or what a part
// holds does.
const carFrameBytes = 628071

// TestCarPartFrameBytes pins the wire cost of a 4-shard Car split: the
// hosts' shardrpc.host.response_bytes over the ten Car queries, by
// table, to the byte.
func TestCarPartFrameBytes(t *testing.T) {
	v, queries, hosts := carShards(t, true)
	for _, q := range queries {
		if _, err := v.RunCtx(context.Background(), core.UDI, q); err != nil {
			t.Fatal(err)
		}
	}
	got := 0.0
	for _, reg := range hosts {
		got += reg.Histogram("shardrpc.host.response_bytes").Sum()
	}
	if got != carFrameBytes {
		t.Fatalf("the Car mix's frames over four hosts take %.0f bytes, pinned %d", got, carFrameBytes)
	}
}
