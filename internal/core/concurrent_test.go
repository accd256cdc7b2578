package core

import (
	"math/rand"
	"sync"
	"testing"

	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestConcurrentQueriesWithIncrementalAdd serves mixed queries from N
// goroutines against one engine while a writer adds a source and applies
// feedback — entirely lock-free on the reader side, the way httpapi now
// serves: queries load the current snapshot, mutations go through the
// single-writer commit path. Run under -race this pins down that the
// plan cache, lazy indexes and obs registry are safe under concurrent
// readers, and the counters afterwards prove the cache was exercised and
// invalidated rather than silently bypassed.
func TestConcurrentQueriesWithIncrementalAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := randomCorpus(rng)
	reg := obs.NewRegistry()
	cfg := Config{Obs: reg}
	sys, err := Setup(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny random sources sit below the index threshold; lower it so the
	// readers also race on lazy index builds.
	for _, src := range corpus.Sources {
		sys.Engine().Tables()[src.Name].IndexThreshold = 1
	}

	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		t.Skip("random corpus has no frequent attributes")
	}
	queries := make([]*sqlparse.Query, 0, 2*len(attrs))
	for _, a := range attrs {
		queries = append(queries, sqlparse.MustParse("SELECT "+a+" FROM t"))
		queries = append(queries, sqlparse.MustParse("SELECT "+a+" FROM t WHERE "+a+" = 'v3'"))
	}

	const readers, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(r+i)%len(queries)]
				rs, err := sys.QueryParsed(q)
				if err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					rs.ByTupleRankingTopK(3)
				}
			}
		}(r)
	}

	// The writer interleaves with the readers: an incremental source add
	// (replacing the engine, hence a cold cache) and one feedback step
	// (conditioning clones, hence an explicit invalidation).
	wg.Add(1)
	go func() {
		defer wg.Done()
		newSrc := schema.MustNewSource("added", []string{"alpha", "bravo"},
			[][]string{{"v1", "v2"}, {"v3", "v4"}})
		if _, err := sys.AddSources([]*schema.Source{newSrc}); err != nil {
			errs <- err
			return
		}
		if err := applyAnyFeedback(sys); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	counters := reg.Snapshot().Counters
	if counters["plan_cache.hits"] == 0 {
		t.Fatalf("no plan cache hits under concurrent load: %+v", counters)
	}
	if counters["plan_cache.misses"] == 0 {
		t.Fatalf("no plan cache misses: %+v", counters)
	}
	// Feedback retargets the cached plans when readers repopulated the
	// cache since the add, and flushes it when they had not yet.
	if counters["plan_cache.invalidations"]+counters["plan_cache.retargets"] == 0 {
		t.Fatalf("feedback neither retargeted nor invalidated the plan cache: %+v", counters)
	}

	// Invalidation observed end to end, now that no readers can race in
	// and repopulate first: empty the cache, and the next query must
	// miss rather than hit a stale plan.
	sys.Engine().InvalidatePlans()
	missesBefore := reg.Snapshot().Counters["plan_cache.misses"]
	if _, err := sys.QueryParsed(queries[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["plan_cache.misses"]; got != missesBefore+1 {
		t.Fatalf("query after invalidation hit a stale plan (misses %d -> %d)", missesBefore, got)
	}
}

// applyAnyFeedback confirms the first existing correspondence it finds,
// mimicking one pay-as-you-go step.
func applyAnyFeedback(s *System) error {
	for _, src := range s.Corpus.Sources {
		for l, pm := range s.Maps[src.Name] {
			for _, g := range pm.Groups {
				if len(g.Corrs) == 0 {
					continue
				}
				c := g.Corrs[0]
				return s.SubmitFeedback(Feedback{Source: src.Name, SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: true})
			}
		}
	}
	return nil
}
