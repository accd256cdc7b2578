package core

// The writer side: one entry every mutation commits through (write), and
// one structural installer (restructure) behind every way a source
// arrives or leaves — AddSources/RemoveSource deciding their own
// mediation, ShardRestructure installing the coordinator's.

import (
	"fmt"
	"time"

	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
)

// txn is one planned mutation: everything that can fail has, and no
// writer field has been touched yet.
type txn struct {
	// ops describe the mutation replayably; they become durable under one
	// CommitLog barrier before anything is installed. The shard verbs log
	// none: their replay is coordinator-global, so their durability is the
	// coordinator's journal plus the shard's checkpoints.
	ops []Op
	// install swaps the planned state into the writer fields and cannot
	// fail. Nil commits nothing (every op of a feedback batch was rejected).
	install func()
	// count is what commit.<kind> advances by when it is not 1: the ops
	// of a feedback batch.
	count int
}

// write is the one writer entry — the commit protocol of every mutation.
// Under the single-writer lock it runs plan, which builds the next state
// privately (a failed plan returns with the writer state, the log and the
// serving snapshot untouched), makes the planned ops durable
// (apply-before-log: a Begin error likewise leaves nothing installed,
// published or logged), installs, publishes the next epoch, and reports
// Committed — after the publish, so a checkpoint rotation snapshots the
// epoch just served.
func (s *System) write(kind string, plan func() (txn, error)) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.committing.Store(true)
	defer s.committing.Store(false)
	t0 := time.Now()

	t, err := plan()
	if err != nil || t.install == nil {
		return err
	}
	logged := s.clog != nil && len(t.ops) > 0
	var firstSeq uint64
	if logged {
		if firstSeq, err = s.clog.Begin(t.ops); err != nil {
			return fmt.Errorf("core: commit log: %w", err)
		}
	}
	t.install()
	s.publish()
	if logged {
		s.clog.Committed(firstSeq, len(t.ops))
	}
	if r := s.Cfg.Obs; r.Enabled() {
		r.Observe("commit.seconds", time.Since(t0).Seconds())
		r.Add("commit."+kind, int64(max(t.count, 1)))
	}
	return nil
}

// --- the structural installer -----------------------------------------

// holds reports whether the writer's corpus has a source of that name:
// every held source has its p-mappings in Maps, and nothing else does.
func (s *System) holds(name string) bool {
	_, ok := s.Maps[name]
	return ok
}

// restructure plans the one way sources arrive or leave: the corpus
// loses the sources named in drop (a name it does not hold drops
// nothing) and gains add (either may be empty), and decide says what to
// serve over the result — the system's own PlanMediation on a single
// core, the coordinator's pushed mediation on a shard. It does everything
// that can fail and touches no writer field; the returned install cannot
// fail.
//
// When decide keeps the clusterings (fast), the mutation is incremental,
// as §5 allows: existing sources' p-mappings are reused verbatim
// (Theorem 5.2: a p-mapping depends on its source and the clustering, not
// on Pr(Mᵢ)) and the dedup cache stays valid, so only the newcomers'
// p-mappings are built — in parallel, against med rather than the served
// s.Med. Reuse needs med to list the served clusterings in the served
// order, since Maps are indexed by it: a fast med that does not is
// refused while any held source is kept. Nothing consolidated is carried
// over: the next epoch consolidates every source under the new Pr(Mᵢ) on
// first use. Otherwise the system is set up afresh over the new corpus
// and adopted whole.
func (s *System) restructure(trace *obs.Span, add []*schema.Source, drop map[string]bool,
	decide func(*schema.Corpus) (med *mediate.Result, fast bool, err error)) (fast bool, install func(), err error) {
	srcs := make([]*schema.Source, 0, len(s.Corpus.Sources)+len(add))
	for _, src := range s.Corpus.Sources {
		if !drop[src.Name] {
			srcs = append(srcs, src)
		}
	}
	kept := len(srcs)
	unchanged := len(add) == 0 && kept == len(s.Corpus.Sources)
	// A duplicate name, in add or against the corpus, is refused here.
	corpus, err := schema.NewCorpus(s.Corpus.Domain, append(srcs, add...))
	if err != nil {
		return false, nil, fmt.Errorf("core: %w", err)
	}
	if len(add) > 0 {
		// One vocabulary extension for the whole batch, then any newly
		// frequent attribute promoted to a precomputed hub row, so the
		// hub rows keep covering every pair mediation and p-mapping
		// construction are about to read. The matrices only ever gain exact
		// entries, so this is value-neutral even if the batch is rejected —
		// and a departed source's names simply stay.
		var attrs []string
		for _, src := range add {
			attrs = append(attrs, src.Attrs...)
		}
		s.extendSims(attrs)
		s.refreshSimHubs(corpus)
	}

	sp := trace.Child("mediate")
	med, fast, err := decide(corpus)
	tMed := sp.End()
	if err != nil {
		// E.g. the shrunken corpus no longer has frequent attributes.
		return false, nil, fmt.Errorf("core: %w", err)
	}
	if !fast {
		rebuilt, err := Setup(corpus, s.Cfg)
		if err != nil {
			return false, nil, err
		}
		return false, func() { s.adopt(rebuilt) }, nil
	}
	if kept > 0 && !med.PMed.SameSequence(s.Med.PMed) {
		return false, nil, fmt.Errorf("core: the mediation's schema sequence is not the one the held p-mappings are indexed by")
	}
	sp = trace.Child("pmappings")
	pms, err := s.mapSources(add, med.PMed)
	tPMap := sp.End()
	if err != nil {
		return false, nil, err
	}

	return true, func() {
		s.Timings.MedSchema += tMed
		s.Timings.PMappings += tPMap
		s.Med = med
		if unchanged {
			// The plan cache keys on (PMed, Maps) identity, so the swap alone
			// invalidates cached plans; dropping them now frees them.
			s.engine.InvalidatePlans()
			return
		}
		s.Corpus = corpus
		sp := trace.Child("import")
		s.buildEngine()
		s.Timings.Import += sp.End()
		// Copy-on-write: published snapshots hold the old maps, and keep a
		// departed source's entries.
		maps := clonedMaps(s.Maps)
		for name := range drop {
			delete(maps, name)
		}
		for name, pm := range pms {
			maps[name] = pm
		}
		s.Maps = maps
	}, nil
}

// --- single core: the system decides its own mediation ----------------

// replan commits one single-core structural mutation: restructure under
// the system's own PlanMediation, logged as ops. A removal must name a
// held source that is not the last. Whichever way the decision went, the
// install closes trace, adopts it into System.Trace and counts
// <counter>.fast — by the sources that rode it — or <counter>.rebuild.
func (s *System) replan(kind, counter string, trace *obs.Span, ops []Op, add []*schema.Source, remove string) (fast bool, err error) {
	drop := map[string]bool{}
	if remove != "" {
		drop[remove] = true
	}
	err = s.write(kind, func() (txn, error) {
		if len(add) == 0 && !s.holds(remove) {
			return txn{}, fmt.Errorf("core: %w %q", ErrUnknownSource, remove)
		}
		if len(add) == 0 && len(s.Corpus.Sources) == 1 {
			return txn{}, fmt.Errorf("core: cannot remove the last source")
		}
		var install func()
		fast, install, err = s.restructure(trace, add, drop, func(c *schema.Corpus) (*mediate.Result, bool, error) {
			return PlanMediation(s.Med.PMed, c, s.medConfig())
		})
		if err != nil {
			return txn{}, err
		}
		n := int64(1)
		if fast {
			counter, n = counter+".fast", int64(len(ops))
		} else {
			counter += ".rebuild"
		}
		return txn{ops: ops, install: func() {
			install()
			trace.End()
			s.Trace.Adopt(trace)
			s.Cfg.Obs.Add(counter, n)
		}}, nil
	})
	return fast && err == nil, err
}

// AddSources grows the system with a batch of new sources, the arrival
// pattern the pay-as-you-go vision assumes (§1: the system starts small
// and improves over time), under a single commit: one vocabulary
// extension, one mediation pass, one engine rebuild, one WAL fsync and
// one published epoch for the whole batch. A single add is a one-element
// batch. In-flight queries keep serving the previous snapshot throughout.
// The returned bool reports the fast path (see restructure): false means
// the batch changed the clustering and the system was rebuilt.
//
// The batch is all-or-nothing: it is validated and the next state fully
// built before anything is logged (see write), so one bad source rejects
// it with the writer state untouched and the log never reached. The log
// records one add_source op per source: recovery replays them as the
// equivalent sequence of one-element batches (see persist), which reaches
// the same corpus, mediated schema and per-schema p-mappings.
func (s *System) AddSources(srcs []*schema.Source) (bool, error) {
	if len(srcs) == 0 {
		return true, nil
	}
	ops := make([]Op, len(srcs))
	for i, src := range srcs {
		d := DataOf(src)
		ops[i] = Op{Kind: OpAddSource, Add: &d}
	}
	trace := obs.StartSpan("add_sources")
	trace.SetAttr("batch", fmt.Sprintf("%d", len(srcs)))
	fast, err := s.replan("add_sources", "add_source", trace, ops, srcs, "")
	if r := s.Cfg.Obs; err == nil && r.Enabled() {
		r.Add("setup.addsource.batches", 1)
		r.Add("setup.addsource.batch_ops", int64(len(srcs)))
		if fast {
			r.Observe("add_source.seconds", trace.Duration().Seconds())
		}
	}
	return fast, err
}

// RemoveSource drops a source from the system. Like AddSources, it keeps
// the existing clustering when the shrunken corpus reproduces it and only
// refreshes probabilities (returning true); otherwise it rebuilds. An
// unknown name, a last source or an unmediatable remainder is refused
// before anything is logged or changed.
func (s *System) RemoveSource(name string) (bool, error) {
	trace := obs.StartSpan("remove_source")
	trace.SetAttr("source", name)
	return s.replan("remove_source", "remove_source", trace, []Op{{Kind: OpRemoveSource, Remove: name}}, nil, name)
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

// --- shard host: the coordinator decides ------------------------------
//
// The verbs a shard coordinator (internal/shard) drives on the per-shard
// cores it owns. A shard core is an ordinary System over the sources
// hashed to it, except that mediation is a function of the whole corpus:
// the coordinator computes it globally and pushes it down, and a shard
// never derives it from its own slice. So a fast-path change is
// restructure under the pushed mediation, with no ops (see txn.ops) —
// feedback, whose replay *is* shard-local, keeps the logged
// SubmitFeedback path — and a rebuild is a wholesale replacement. Both
// are idempotent, as shard.Shard requires of a verb that may be redone.

// NewEmptyShard builds a servable System over zero sources: the state of
// a shard no source hashes to. It carries the global mediation so its
// /v1-visible schema agrees with its peers; queries over it return empty
// results and mutations addressed to unknown sources fail as usual.
func NewEmptyShard(domain string, cfg Config, med *mediate.Result, target *schema.MediatedSchema) (*System, error) {
	corpus, err := schema.NewCorpus(domain, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return Restore(corpus, cfg, med, map[string][]*pmapping.PMapping{}, target)
}

// ShardRestructure commits one coordinator-directed fast-path change
// under one commit and one published epoch: the shard's corpus becomes
// held − drop + (add − held), and it serves med, the coordinator's
// globally planned mediation (same clusterings, recounted probabilities).
// The shard builds only what is local to it (see restructure). Each part
// is idempotent: an add the shard already holds is skipped, and a drop of
// a name it does not hold is a no-op that still installs med. Unlike
// RemoveSource it may empty the shard: "last source" is a global property
// only the coordinator can judge. All-or-nothing: an unbuildable source,
// or a med whose schema sequence is not the served one while a held
// source is kept, fails the commit with the writer state untouched. An
// empty result may take any sequence.
func (s *System) ShardRestructure(add []*schema.Source, drop []string, med *mediate.Result) error {
	return s.write("shard_restructure", func() (txn, error) {
		if med == nil || med.PMed == nil {
			return txn{}, fmt.Errorf("core: shard_restructure needs a p-med-schema")
		}
		gone := make(map[string]bool, len(drop))
		for _, name := range drop {
			if s.holds(name) {
				gone[name] = true
			}
		}
		var missing []*schema.Source
		for _, src := range add {
			if !s.holds(src.Name) {
				missing = append(missing, src)
			}
		}
		_, install, err := s.restructure(nil, missing, gone, func(*schema.Corpus) (*mediate.Result, bool, error) {
			return med, true, nil
		})
		if err != nil {
			return txn{}, err
		}
		return txn{install: func() {
			install()
			s.Cfg.Obs.Add("shard.adopt", int64(len(missing)))
			s.Cfg.Obs.Add("shard.drop", int64(len(gone)))
		}}, nil
	})
}

// ShardReplaceState commits a wholesale state replacement: the
// coordinator rebuilt the global system (the clustering changed) and r is
// this shard's projection of the rebuild. Readers observe it as one more
// epoch, exactly like the single-core rebuild path.
func (s *System) ShardReplaceState(r *System) error {
	return s.write("shard_replace", func() (txn, error) {
		if r == nil {
			return txn{}, fmt.Errorf("core: shard_replace needs a system")
		}
		return txn{install: func() {
			s.adopt(r)
			s.Cfg.Obs.Add("shard.replace", 1)
		}}, nil
	})
}
