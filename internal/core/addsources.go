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

// AddSources grows the system with a batch of new sources under a single
// commit: one vocabulary extension, one mediation pass, one engine
// rebuild, one WAL fsync (wal.AppendBatch via BatchCommitLog.BeginBatch)
// and one published epoch for the whole batch — the bulk-import
// counterpart of the PR 7 feedback group commit. It returns true when
// the fast path applied (clustering unchanged, only the new sources'
// p-mappings built).
//
// The protocol is apply-before-log, like the feedback batch: the whole
// batch is validated and the next state fully built before BeginBatch,
// so a failed batch is rejected without ever reaching the log and needs
// no compensating aborts. The batch is all-or-nothing — one bad source
// rejects the batch with the writer state restored.
//
// The log records one add_source op per source: recovery replays them as
// the equivalent sequence of single adds (see persist), which reaches
// the same corpus, mediated schema and per-schema p-mappings. Against a
// legacy non-batch CommitLog the batch degrades to per-op commits (one
// fsync each), exactly as a caller looping AddSource would get.
func (s *System) AddSources(srcs []*schema.Source) (bool, error) {
	if len(srcs) == 0 {
		return true, nil
	}
	if len(srcs) == 1 {
		return s.AddSource(srcs[0])
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

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

	ops := make([]Op, len(srcs))
	for i, src := range srcs {
		ops[i] = Op{Kind: OpAddSource, Add: &SourceData{Name: src.Name, Attrs: src.Attrs, Rows: src.Rows}}
	}

	// A legacy (non-batch) commit log cannot amortize the fsync barrier;
	// route each source through the one-commit path it was written for.
	if s.clog != nil {
		if _, ok := s.clog.(BatchCommitLog); !ok {
			fastAll := true
			for i, src := range srcs {
				src := src
				fast := false
				err := s.commitLocked("add_source", &ops[i], func() error {
					var ferr error
					fast, ferr = s.addSourceLocked(src)
					return ferr
				})
				if err != nil {
					return false, err
				}
				fastAll = fastAll && fast
			}
			return fastAll, nil
		}
	}

	s.committing.Store(true)
	defer s.committing.Store(false)
	t0 := time.Now()
	fast, err := s.addSourcesLocked(srcs, ops)
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

// logAddBatch makes the batch durable under one fsync. Returns the first
// sequence number and whether anything was logged.
func (s *System) logAddBatch(ops []Op) (uint64, bool, error) {
	if s.clog == nil {
		return 0, false, nil
	}
	seq, err := s.clog.(BatchCommitLog).BeginBatch(ops)
	if err != nil {
		return 0, false, fmt.Errorf("core: commit log: %w", err)
	}
	return seq, true, nil
}

// addSourcesLocked is the batched analogue of addSourceLocked: the
// per-batch stages (corpus rebuild, vocabulary extension, mediation,
// probability refresh, engine and keyword-index rebuild) run once, the
// per-source stages (p-mappings, consolidation) run in parallel across
// the batch. Callers hold commitMu.
func (s *System) addSourcesLocked(srcs []*schema.Source, ops []Op) (bool, error) {
	newSources := make([]*schema.Source, 0, len(s.Corpus.Sources)+len(srcs))
	newSources = append(newSources, s.Corpus.Sources...)
	newSources = append(newSources, srcs...)
	corpus, err := schema.NewCorpus(s.Corpus.Domain, newSources)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}

	trace := obs.StartSpan("add_sources")
	trace.SetAttr("batch", fmt.Sprintf("%d", len(srcs)))
	var attrs []string
	for _, src := range srcs {
		attrs = append(attrs, src.Attrs...)
	}
	// One vocabulary extension for the whole batch, then promote any
	// newly frequent attributes to precomputed hub rows so the blocked
	// matrix keeps covering every pair mediation is about to read.
	s.extendSims(attrs)
	s.refreshSimHubs(corpus)

	sp := trace.Child("mediate")
	med, fast, err := PlanMediation(s.Med.PMed, corpus, s.medConfig())
	if err != nil {
		sp.End()
		return false, fmt.Errorf("core: %w", err)
	}
	if !fast {
		sp.End()
		s.Cfg.Obs.Add("add_source.rebuild", 1)
		rebuilt, err := Setup(corpus, s.Cfg)
		if err != nil {
			return false, err
		}
		// Log only after the rebuild succeeded: a failed batch must leave
		// nothing in the log. Adopt and publish after logging so a log
		// failure leaves the serving state untouched.
		firstSeq, logged, err := s.logAddBatch(ops)
		if err != nil {
			return false, err
		}
		s.adopt(rebuilt)
		s.publish()
		if logged {
			s.clog.(BatchCommitLog).CommittedBatch(firstSeq, len(ops))
		}
		return false, nil
	}
	oldMed := s.Med
	s.Med = med
	// Probabilities shifted: cached consolidations are stale (the
	// p-mapping dedup cache stays valid — clusterings are unchanged).
	// Cache invalidation is value-neutral, so it may precede logging.
	s.caches.cons.invalidate()
	s.Timings.MedSchema += sp.End()

	// Per-source p-mappings in parallel, before any other writer field is
	// touched: a failed batch restores s.Med and leaves the state exactly
	// as it was.
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
			pms[i], errs[i] = s.buildSourceMappings(srcs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.Med = oldMed
			sp.End()
			return false, err
		}
	}
	s.Timings.PMappings += sp.End()

	// Durability barrier: one fsync for the whole batch. After this point
	// nothing can fail; recovery replays exactly what the caller was
	// acknowledged for.
	firstSeq, logged, err := s.logAddBatch(ops)
	if err != nil {
		s.Med = oldMed
		return false, err
	}

	s.Corpus = corpus
	sp = trace.Child("import")
	s.engine = answer.NewEngine(corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
	s.kwIndex = storage.BuildKeywordIndexP(corpus, s.Cfg.Parallelism)
	s.kw = keyword.NewEngine(s.kwIndex)
	s.Timings.Import += sp.End()

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

	s.publish()
	if logged {
		s.clog.(BatchCommitLog).CommittedBatch(firstSeq, len(ops))
	}
	trace.End()
	s.Trace.Adopt(trace)
	s.Cfg.Obs.Add("add_source.fast", int64(len(srcs)))
	s.Cfg.Obs.Observe("add_source.seconds", trace.Duration().Seconds())
	return true, nil
}
