package core

// Shard-host primitives: the commit operations a shard coordinator
// (internal/shard) drives on the per-shard cores it owns. A shard core is
// an ordinary System over the subset of sources hashed to it, except that
// its mediation artifacts (p-med-schema, consolidated target) are computed
// globally by the coordinator and pushed down — mediation is a function of
// the whole corpus, so a shard must never derive it from its own slice.
//
// Every primitive is one commit with a nil Op: shard-coordination state
// changes are made durable by the coordinator's journal + per-shard
// checkpoints, not by the shard's own WAL (a WAL replay of, say, an
// add would re-derive shard-local mediation, which is exactly the
// wrong semantics). Feedback, whose replay *is* shard-local, keeps using
// the ordinary WAL-logged SubmitFeedback path.

import (
	"fmt"
	"sync"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/keyword"
	"udi/internal/mediate"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/storage"
)

// NewEmptyShard builds a servable System over zero sources: the state of
// a shard no source hashes to. It carries the global mediation so its
// /v1-visible schema agrees with its peers; queries over it return empty
// results and mutations addressed to unknown sources fail as usual.
func NewEmptyShard(domain string, cfg Config, med *mediate.Result, target *schema.MediatedSchema) (*System, error) {
	corpus, err := schema.NewCorpus(domain, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return Restore(corpus, cfg, med, map[string][]*pmapping.PMapping{}, target, nil)
}

// ShardAdoptSources commits a coordinator-directed adoption: the shard
// gains every source in srcs and switches to the coordinator's refreshed
// mediation (same clusterings, recounted probabilities — the AddSources
// fast path evaluated globally) under one commit and one published epoch.
// The shard builds only what is local to it — the new sources'
// p-mappings, tables, indexes and consolidated p-mappings — with the
// per-batch stages (corpus rebuild, vocabulary extension, engine and
// keyword-index rebuild) amortized across the batch and the per-source
// stages run in parallel; existing sources' artifacts are reused exactly
// as addSourcesLocked would. The batch is all-or-nothing: one failed
// source restores the writer state and the commit aborts. A one-element
// batch is the single-source adoption.
func (s *System) ShardAdoptSources(srcs []*schema.Source, med *mediate.Result) error {
	if len(srcs) == 0 {
		return nil
	}
	return s.commit("shard_adopt", func() error { return s.shardAdoptLocked(srcs, med) })
}

func (s *System) shardAdoptLocked(srcs []*schema.Source, med *mediate.Result) error {
	if med == nil || med.PMed == nil {
		return fmt.Errorf("core: shard adopt needs a p-med-schema")
	}
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)+len(srcs))
	newSources = append(newSources, s.Corpus.Sources...)
	newSources = append(newSources, srcs...)
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var attrs []string
	for _, src := range srcs {
		attrs = append(attrs, src.Attrs...)
	}
	s.extendSims(attrs)
	s.refreshSimHubs(corpus)

	// Same discipline as addSourcesLocked: build every new source's
	// p-mappings against the incoming mediation before touching any writer
	// field, so an aborted commit leaves the writer state untouched.
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	s.Med = med
	// Probabilities shifted, so cached consolidations no longer match; the
	// p-mapping dedup cache stays valid (clusterings unchanged).
	s.caches.cons.invalidate()
	s.Corpus = corpus
	s.engine = answer.NewEngine(corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
	s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
	s.kw = keyword.NewEngine(s.kwIndex)

	maps := clonedMaps(s.Maps)
	for i, src := range srcs {
		maps[src.Name] = pms[i]
	}
	s.Maps = maps

	// Consolidate only the new sources; existing sources keep their entries
	// (computed under the previous probabilities), exactly like the
	// single-core fast path.
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
	s.Cfg.Obs.Add("shard.adopt", int64(len(srcs)))
	return nil
}

// ShardDropSource commits a coordinator-directed source removal with the
// coordinator's refreshed mediation. Unlike RemoveSource it permits
// emptying the shard: "last source" is a global property only the
// coordinator can judge.
func (s *System) ShardDropSource(name string, med *mediate.Result) error {
	return s.commit("shard_drop", func() error { return s.shardDropLocked(name, med) })
}

func (s *System) shardDropLocked(name string, med *mediate.Result) error {
	if med == nil || med.PMed == nil {
		return fmt.Errorf("core: shard drop needs a p-med-schema")
	}
	idx := -1
	for i, src := range s.Corpus.Sources {
		if src.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: %w %q", ErrUnknownSource, name)
	}
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)-1)
	newSources = append(newSources, s.Corpus.Sources[:idx]...)
	newSources = append(newSources, s.Corpus.Sources[idx+1:]...)
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.Med = med
	s.caches.cons.invalidate()
	s.Corpus = corpus
	maps := clonedMaps(s.Maps)
	delete(maps, name)
	s.Maps = maps
	cons := clonedMaps(s.ConsMaps)
	delete(cons, name)
	s.ConsMaps = cons
	s.engine = answer.NewEngine(corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
	s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
	s.kw = keyword.NewEngine(s.kwIndex)
	s.Cfg.Obs.Add("shard.drop", 1)
	return nil
}

// ShardSetMediation commits a mediation swap with no corpus change: the
// coordinator refreshed schema probabilities because a source arrived at
// (or left) a *different* shard, and every peer must serve the new
// distribution. Clusterings are expected to be unchanged; p-mappings are
// therefore reused verbatim (they do not depend on the probabilities).
func (s *System) ShardSetMediation(med *mediate.Result) error {
	return s.commit("shard_med", func() error {
		if med == nil || med.PMed == nil {
			return fmt.Errorf("core: shard mediation needs a p-med-schema")
		}
		s.Med = med
		// The plan cache keys on (PMed, Maps) identity, so the swap alone
		// invalidates cached plans; dropping consolidation dedup entries
		// keeps the invalidation story uniform with the fast path.
		s.caches.cons.invalidate()
		s.engine.InvalidatePlans()
		s.Cfg.Obs.Add("shard.set_mediation", 1)
		return nil
	})
}

// ShardReplaceState commits a wholesale state replacement: the
// coordinator rebuilt the global system (the clustering changed) and r is
// this shard's projection of the rebuild. Readers observe it as one more
// epoch, exactly like the single-core rebuild path.
func (s *System) ShardReplaceState(r *System) error {
	return s.commit("shard_replace", func() error {
		if r == nil {
			return fmt.Errorf("core: shard replace needs a system")
		}
		s.adopt(r)
		s.Cfg.Obs.Add("shard.replace", 1)
		return nil
	})
}
