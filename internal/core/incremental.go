package core

import (
	"fmt"
	"time"

	"udi/internal/answer"
	"udi/internal/keyword"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/storage"
)

// RemoveSource drops a source from the system. Like AddSources, it keeps
// the existing clustering when the shrunken corpus reproduces it and only
// refreshes probabilities (returning true); otherwise it rebuilds. It is
// one commit under the same apply-before-log protocol: an unknown name, a
// last source or an unmediatable remainder is refused before anything is
// logged or changed.
func (s *System) RemoveSource(name string) (bool, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.committing.Store(true)
	defer s.committing.Store(false)
	t0 := time.Now()
	fast, err := s.removeSourceLocked(name)
	if err != nil {
		return false, err
	}
	if r := s.Cfg.Obs; r.Enabled() {
		r.Observe("commit.seconds", time.Since(t0).Seconds())
		r.Add("commit.remove_source", 1)
	}
	return fast, nil
}

// removeSourceLocked plans the removal with no writer field touched, then
// hands the infallible install to commitApplied. Callers hold commitMu.
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
	ops := []Op{{Kind: OpRemoveSource, Remove: name}}
	if !fast {
		rebuilt, err := Setup(corpus, s.Cfg)
		if err != nil {
			return false, err
		}
		return false, s.commitApplied(ops, func() { s.adopt(rebuilt) })
	}
	err = s.commitApplied(ops, func() {
		s.Med = med
		// Schema probabilities shifted; drop cached consolidations (see
		// addSourcesLocked). The interned matrices keep the departed
		// source's names — extra exact entries are harmless.
		s.caches.cons.invalidate()
		s.Corpus = corpus
		// Copy-on-write: published snapshots keep the departed source's
		// entries.
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
	})
	if err != nil {
		return false, err
	}
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
