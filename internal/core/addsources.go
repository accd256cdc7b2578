package core

import (
	"fmt"
	"sync"
	"time"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/keyword"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/storage"
)

// AddSources grows the system with a batch of new sources, the arrival
// pattern the pay-as-you-go vision assumes (§1: the system starts small
// and improves over time), under a single commit: one vocabulary
// extension, one mediation pass, one engine rebuild, one WAL fsync and
// one published epoch for the whole batch. A single add is a one-element
// batch. In-flight queries keep serving the previous snapshot throughout.
//
// When the enlarged corpus yields the same set of possible mediated
// schemas, only the new sources' p-mappings are built and the schema
// probabilities are refreshed (Algorithm 2 counts the new sources'
// consistency; the mappings of existing sources do not depend on the
// probabilities, so they are reused verbatim) — the fast path, reported
// by the returned bool. When the clustering itself changes — the new
// sources shifted attribute frequencies or introduced new frequent
// attributes — the system is rebuilt from scratch, which is what
// correctness requires.
//
// The protocol is apply-before-log (see commitApplied): the whole batch
// is validated and the next state fully built before it is logged, so a
// failed batch is rejected without ever reaching the log. The batch is
// all-or-nothing — one bad source rejects it with the writer state
// untouched.
//
// The log records one add_source op per source: recovery replays them as
// the equivalent sequence of one-element batches (see persist), which
// reaches the same corpus, mediated schema and per-schema p-mappings.
func (s *System) AddSources(srcs []*schema.Source) (bool, error) {
	if len(srcs) == 0 {
		return true, nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.committing.Store(true)
	defer s.committing.Store(false)
	t0 := time.Now()

	// Reject the whole batch up front on duplicate names — in the batch
	// or against the corpus — before anything is applied or logged.
	seen := make(map[string]bool, len(srcs))
	for _, src := range srcs {
		if seen[src.Name] {
			return false, fmt.Errorf("core: duplicate source %q in batch", src.Name)
		}
		seen[src.Name] = true
	}
	for _, old := range s.Corpus.Sources {
		if seen[old.Name] {
			return false, fmt.Errorf("core: source %q already in corpus", old.Name)
		}
	}

	fast, err := s.addSourcesLocked(srcs)
	if err != nil {
		return false, err
	}
	if r := s.Cfg.Obs; r.Enabled() {
		r.Add("setup.addsource.batches", 1)
		r.Add("setup.addsource.batch_ops", int64(len(srcs)))
		r.Observe("commit.seconds", time.Since(t0).Seconds())
		r.Add("commit.add_sources", 1)
	}
	return fast, nil
}

// addSourcesLocked plans the batch — everything that can fail, with no
// writer field touched — then hands the infallible install to
// commitApplied. The per-batch stages (corpus rebuild, vocabulary
// extension, mediation, probability refresh, engine and keyword-index
// rebuild) run once, the per-source stages (p-mappings, consolidation)
// in parallel across the batch. Callers hold commitMu.
func (s *System) addSourcesLocked(srcs []*schema.Source) (bool, error) {
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)+len(srcs))
	newSources = append(newSources, s.Corpus.Sources...)
	newSources = append(newSources, srcs...)
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	ops := make([]Op, len(srcs))
	var attrs []string
	for i, src := range srcs {
		ops[i] = Op{Kind: OpAddSource, Add: &SourceData{Name: src.Name, Attrs: src.Attrs, Rows: src.Rows}}
		attrs = append(attrs, src.Attrs...)
	}

	trace := obs.StartSpan("add_sources")
	trace.SetAttr("batch", fmt.Sprintf("%d", len(srcs)))
	// One vocabulary extension for the whole batch, then promote any
	// newly frequent attributes to precomputed hub rows so the blocked
	// matrix keeps covering every pair mediation is about to read. The
	// matrices only ever gain exact entries, so this is value-neutral
	// even if the batch is later rejected.
	s.extendSims(attrs)
	s.refreshSimHubs(corpus)

	sp := trace.Child("mediate")
	med, fast, err := PlanMediation(s.Med.PMed, corpus, s.medConfig())
	tMed := sp.End()
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	if !fast {
		// The clustering set changed: full rebuild.
		s.Cfg.Obs.Add("add_source.rebuild", 1)
		rebuilt, err := Setup(corpus, s.Cfg)
		if err != nil {
			return false, err
		}
		return false, s.commitApplied(ops, func() { s.adopt(rebuilt) })
	}

	// Fast path: med keeps the existing schema order (Maps are indexed by
	// it) with the probabilities refreshed to count the new sources. The
	// p-mapping dedup cache stays valid — Build depends only on the
	// clusterings, which are unchanged on this path.
	sp = trace.Child("pmappings")
	pms := make([][]*pmapping.PMapping, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.Cfg.Parallelism)
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pms[i], errs[i] = s.buildSourceMappings(srcs[i], med.PMed)
		}(i)
	}
	wg.Wait()
	tPMap := sp.End()
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}

	err = s.commitApplied(ops, func() {
		s.Med = med
		// Consolidation scales mapping probabilities by Pr(M_i), which the
		// batch just shifted, so cached consolidations no longer match.
		s.caches.cons.invalidate()
		s.Timings.MedSchema += tMed
		s.Timings.PMappings += tPMap

		s.Corpus = corpus
		sp := trace.Child("import")
		s.engine = answer.NewEngine(corpus)
		s.engine.Parallelism = s.Cfg.Parallelism
		s.engine.SetObs(s.Cfg.Obs)
		s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
		s.kw = keyword.NewEngine(s.kwIndex)
		s.Timings.Import += sp.End()

		// Copy-on-write: published snapshots hold the old maps; grow clones.
		maps := clonedMaps(s.Maps)
		for i, src := range srcs {
			maps[src.Name] = pms[i]
		}
		s.Maps = maps

		sp = trace.Child("consolidate")
		cons := clonedMaps(s.ConsMaps)
		co := s.newConsolidator()
		cpms := make([]*consolidate.PMapping, len(srcs))
		for i := range srcs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cpms[i], _ = s.consolidateSource(co, srcs[i])
			}(i)
		}
		wg.Wait()
		for i, src := range srcs {
			if cpms[i] != nil {
				cons[src.Name] = cpms[i]
			}
		}
		s.ConsMaps = cons
		s.Timings.Consolidation += sp.End()
	})
	if err != nil {
		return false, err
	}
	trace.End()
	s.Trace.Adopt(trace)
	s.Cfg.Obs.Add("add_source.fast", int64(len(srcs)))
	s.Cfg.Obs.Observe("add_source.seconds", trace.Duration().Seconds())
	return true, nil
}
