package udi_test

import (
	"context"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
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
// the Car mix on one worker (carServe), measured when the scan first
// compiled its predicates and interned its tuples. The gate allows 2%
// above it: allocation counts do not swing from run to run as wall time
// does, so a rise beyond that is a cost the serving path took on.
const carServeAllocs = 18859

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
