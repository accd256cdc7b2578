package core

import (
	"fmt"

	"udi/internal/answer"
	"udi/internal/keyword"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/storage"
)

// AddSource grows the system with a new data source, the arrival pattern
// the pay-as-you-go vision assumes (§1: the system starts small and
// improves over time). When the enlarged corpus yields the same set of
// possible mediated schemas, only the new source's p-mappings are built
// and the schema probabilities are refreshed (Algorithm 2 counts the new
// source's consistency; the mappings of existing sources do not depend on
// the probabilities, so they are reused verbatim). When the clustering
// itself changes — the new source shifted attribute frequencies or
// introduced new frequent attributes — the system is rebuilt from scratch,
// which is what correctness requires.
//
// It returns true when the fast path applied.
//
// AddSource is one commit: it runs behind the single-writer lock, builds
// the next state copy-on-write, and publishes it as the next epoch.
// In-flight queries keep serving the previous snapshot throughout.
func (s *System) AddSource(src *schema.Source) (bool, error) {
	fast := false
	op := &Op{Kind: OpAddSource, Add: &SourceData{Name: src.Name, Attrs: src.Attrs, Rows: src.Rows}}
	err := s.commit("add_source", op, func() error {
		var err error
		fast, err = s.addSourceLocked(src)
		return err
	})
	return fast, err
}

func (s *System) addSourceLocked(src *schema.Source) (bool, error) {
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)+1)
	newSources = append(newSources, s.Corpus.Sources...)
	newSources = append(newSources, src)
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}

	trace := obs.StartSpan("add_source")
	trace.SetAttr("source", src.Name)
	// Grow the interned vocabulary with any attribute names the new source
	// introduces so the matrix-backed similarity stays a pure lookup, and
	// promote any newly frequent attributes to precomputed hub rows so
	// the blocked matrix keeps covering mediation's reads.
	s.extendSims(src.Attrs)
	s.refreshSimHubs(corpus)
	sp := trace.Child("mediate")
	med, fast, err := PlanMediation(s.Med.PMed, corpus, s.medConfig())
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
		s.adopt(rebuilt)
		return false, nil
	}
	// Fast path: med keeps the existing schema order (Maps are indexed by
	// it) with the probabilities refreshed to count the new source.
	oldMed := s.Med
	s.Med = med
	// Consolidation scales mapping probabilities by Pr(M_i), which the new
	// source just shifted, so cached consolidations no longer match the
	// current p-med-schema. The p-mapping dedup cache stays valid: Build
	// depends only on the clusterings, which are unchanged on this path.
	s.caches.cons.invalidate()
	s.Timings.MedSchema += sp.End()

	// Build the new source's p-mappings before touching any other writer
	// field (they read s.Med, so that assignment precedes this): a failed
	// commit must leave the writer state exactly as it was, or the next
	// successful commit would publish a corpus/engine/maps mix no epoch
	// ever equaled.
	sp = trace.Child("pmappings")
	pms, err := s.buildSourceMappings(src)
	if err != nil {
		s.Med = oldMed
		sp.End()
		return false, err
	}
	s.Timings.PMappings += sp.End()

	s.Corpus = corpus
	sp = trace.Child("import")
	s.engine = answer.NewEngine(corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
	s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
	s.kw = keyword.NewEngine(s.kwIndex)
	s.Timings.Import += sp.End()

	// Copy-on-write: published snapshots hold the old maps; grow clones.
	maps := clonedMaps(s.Maps)
	maps[src.Name] = pms
	s.Maps = maps

	sp = trace.Child("consolidate")
	cons := clonedMaps(s.ConsMaps)
	cpm, err := s.consolidateSource(s.newConsolidator(), src)
	if err == nil && cpm != nil {
		cons[src.Name] = cpm
	}
	s.ConsMaps = cons
	s.Timings.Consolidation += sp.End()
	trace.End()
	s.Trace.Adopt(trace)
	s.Cfg.Obs.Add("add_source.fast", 1)
	s.Cfg.Obs.Observe("add_source.seconds", trace.Duration().Seconds())
	return true, nil
}

// RemoveSource drops a source from the system. Like AddSource, it keeps
// the existing clustering when the shrunken corpus reproduces it and only
// refreshes probabilities; otherwise it rebuilds. It is one commit (see
// AddSource).
func (s *System) RemoveSource(name string) (bool, error) {
	fast := false
	op := &Op{Kind: OpRemoveSource, Remove: name}
	err := s.commit("remove_source", op, func() error {
		var err error
		fast, err = s.removeSourceLocked(name)
		return err
	})
	return fast, err
}

func (s *System) removeSourceLocked(name string) (bool, error) {
	idx := -1
	for i, src := range s.Corpus.Sources {
		if src.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, fmt.Errorf("core: %w %q", ErrUnknownSource, name)
	}
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)-1)
	newSources = append(newSources, s.Corpus.Sources[:idx]...)
	newSources = append(newSources, s.Corpus.Sources[idx+1:]...)
	if len(newSources) == 0 {
		return false, fmt.Errorf("core: cannot remove the last source")
	}
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}

	med, fast, err := PlanMediation(s.Med.PMed, corpus, s.medConfig())
	if err != nil {
		// The shrunken corpus may no longer have frequent attributes.
		return false, fmt.Errorf("core: %w", err)
	}
	if !fast {
		rebuilt, err := Setup(corpus, s.Cfg)
		if err != nil {
			return false, err
		}
		s.adopt(rebuilt)
		return false, nil
	}
	s.Med = med
	// Schema probabilities shifted; drop cached consolidations (see
	// AddSource). The interned matrices keep the departed source's names —
	// extra exact entries are harmless.
	s.caches.cons.invalidate()
	s.Corpus = corpus
	// Copy-on-write: published snapshots keep the departed source's entries.
	maps := clonedMaps(s.Maps)
	delete(maps, name)
	s.Maps = maps
	cons := clonedMaps(s.ConsMaps)
	delete(cons, name)
	s.ConsMaps = cons
	trace := obs.StartSpan("remove_source")
	trace.SetAttr("source", name)
	s.engine = answer.NewEngine(corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
	s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
	s.kw = keyword.NewEngine(s.kwIndex)
	trace.End()
	s.Trace.Adopt(trace)
	s.Cfg.Obs.Add("remove_source.fast", 1)
	return true, nil
}

// PlanMediation is the one fast-vs-rebuild decision every structural
// mutation makes — the single-core add/remove paths here, the shard
// coordinator's live mutation and its journal redo. pre is the
// p-med-schema being served, corpus the post-mutation corpus: Algorithm 1
// regenerates the clusterings over it, and when they reproduce pre's set
// the mutation is incremental (fast): med keeps pre's schema sequence —
// p-mappings are indexed by it — with Algorithm 2's probabilities
// recounted over corpus. Otherwise, or when a recounted probability hit
// zero (the set effectively changed), the caller must rebuild from
// scratch and med is the freshly generated result. An error means the
// corpus cannot be mediated at all (no frequent attributes); the mutation
// must be refused with no change.
func PlanMediation(pre *schema.PMedSchema, corpus *schema.Corpus, cfg mediate.Config) (med *mediate.Result, fast bool, err error) {
	gen, err := mediate.Generate(corpus, cfg)
	if err != nil {
		return nil, false, err
	}
	if !sameSchemaSet(pre, gen.PMed) {
		return gen, false, nil
	}
	probs := mediate.AssignProbabilities(pre.Schemas, corpus)
	pmed, err := schema.NewPMedSchema(pre.Schemas, probs)
	if err != nil {
		return gen, false, nil
	}
	return &mediate.Result{PMed: pmed, Graph: gen.Graph, FrequentAttrs: gen.FrequentAttrs}, true, nil
}

// sameSchemaSet reports whether two p-med-schemas contain the same
// clusterings (probabilities ignored).
func sameSchemaSet(a, b *schema.PMedSchema) bool {
	if a.Len() != b.Len() {
		return false
	}
	keys := make(map[string]bool, a.Len())
	for _, m := range a.Schemas {
		keys[m.Key()] = true
	}
	for _, m := range b.Schemas {
		if !keys[m.Key()] {
			return false
		}
	}
	return true
}
