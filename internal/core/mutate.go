package core

// The writer side: one entry every mutation commits through (write); the
// single-core structural path (restructure) behind AddSources and
// RemoveSource, which decide their own mediation; and ShardRestructure,
// which installs what a shard coordinator decided.

import (
	"fmt"
	"slices"
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
	// CommitLog barrier before anything is installed. ShardRestructure
	// logs none: its replay is coordinator-global, so its durability is
	// the coordinator's journal plus the shard's checkpoints.
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

// --- single core: the system decides its own mediation ----------------

// holds reports whether the writer's corpus has a source of that name:
// every held source has its p-mappings in Maps, and nothing else does.
func (s *System) holds(name string) bool {
	_, ok := s.Maps[name]
	return ok
}

// restructure plans the one way sources arrive or leave a single core:
// the corpus loses the sources named in drop (a name it does not hold
// drops nothing) and gains add (either may be empty), and PlanMediation
// decides what to serve over the result. It does everything that can
// fail and touches no writer field; the returned install cannot fail.
//
// When the plan keeps the clusterings (fast), the mutation is
// incremental, as §5 allows: existing sources' p-mappings are reused
// verbatim (Theorem 5.2: a p-mapping depends on its source and the
// clustering, not on Pr(Mᵢ)) and the dedup cache stays valid, so only
// the newcomers' p-mappings are built — in parallel, against the planned
// med, whose schema sequence is the served one. Nothing consolidated is
// carried over: the next epoch consolidates every source under the new
// Pr(Mᵢ) on first use. Otherwise the system is set up afresh over the
// new corpus and adopted whole.
func (s *System) restructure(trace *obs.Span, add []*schema.Source, drop map[string]bool) (fast bool, install func(), err error) {
	srcs := make([]*schema.Source, 0, len(s.Corpus.Sources)+len(add))
	for _, src := range s.Corpus.Sources {
		if !drop[src.Name] {
			srcs = append(srcs, src)
		}
	}
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
	med, fast, err := PlanMediation(s.Med.PMed, corpus, s.medConfig())
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
		fast, install, err = s.restructure(trace, add, drop)
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
// A shard core is an ordinary System over the sources hashed to it,
// except that everything schema-level is a function of the whole corpus:
// the coordinator (internal/shard) plans the mediation, the consolidated
// schema and every p-mapping, and a shard only installs them beside the
// rows it stores and scans. It never runs matching, mediation or
// p-mapping construction.

// ShardChange is the one structural change a coordinator pushes to a
// shard: "become this". Its semantics make it idempotent by
// construction, as shard.Shard requires of a verb that may be redone.
type ShardChange struct {
	// Domain names the shard's corpus.
	Domain string
	// Sources is the shard's whole corpus afterwards, in global order. A
	// held source it does not list leaves.
	Sources []string
	// Add carries the rows of the listed sources the shard may lack; an
	// added source replaces a held one of the same name. A source's rows
	// cross to its shard in the change that adds it, never again.
	Add []*schema.Source
	// Med and Target are the mediation and consolidated schema to serve.
	Med    *mediate.Result
	Target *schema.MediatedSchema
	// Maps holds p-mappings, indexed by Med's schema sequence, for every
	// added source and for any held source whose p-mappings change (every
	// source, on a rebuild). A held source without an entry keeps its
	// own, which requires Med to list the served schema sequence.
	Maps map[string][]*pmapping.PMapping
}

// resolve lays the change out over held (nil when the shard has no
// state): the listed sources in order with the p-mappings each serves,
// and how many held sources keep their own p-mappings. It refuses a
// change without a mediation or target, a listed name that is neither
// held nor added, an added source without p-mappings, p-mappings or rows
// for a source the change does not list, and p-mappings of the wrong
// width.
func (ch *ShardChange) resolve(held *System) ([]*schema.Source, map[string][]*pmapping.PMapping, int, error) {
	if ch.Med == nil || ch.Med.PMed == nil || ch.Target == nil {
		return nil, nil, 0, fmt.Errorf("core: a shard change needs a p-med-schema and a target")
	}
	added := make(map[string]*schema.Source, len(ch.Add))
	for _, src := range ch.Add {
		added[src.Name] = src
	}
	var have map[string]*schema.Source
	if held != nil {
		have = make(map[string]*schema.Source, len(held.Corpus.Sources))
		for _, src := range held.Corpus.Sources {
			have[src.Name] = src
		}
	}
	srcs := make([]*schema.Source, 0, len(ch.Sources))
	maps := make(map[string][]*pmapping.PMapping, len(ch.Sources))
	kept, nAdded, nMaps := 0, 0, 0
	for _, name := range ch.Sources {
		src, pms := added[name], ch.Maps[name]
		switch {
		case src != nil:
			nAdded++
		case have[name] != nil:
			src = have[name]
		default:
			return nil, nil, 0, fmt.Errorf("core: source %q is neither held nor added", name)
		}
		switch {
		case pms != nil:
			nMaps++
		case added[name] != nil:
			return nil, nil, 0, fmt.Errorf("core: added source %q has no p-mappings", name)
		default:
			pms = held.Maps[name]
			kept++
		}
		if len(pms) != ch.Med.PMed.Len() {
			return nil, nil, 0, fmt.Errorf("core: source %q has %d p-mappings for %d schemas", name, len(pms), ch.Med.PMed.Len())
		}
		srcs = append(srcs, src)
		maps[name] = pms
	}
	if nAdded != len(added) || nMaps != len(ch.Maps) {
		return nil, nil, 0, fmt.Errorf("core: a shard change carries rows or p-mappings for a source it does not list")
	}
	return srcs, maps, kept, nil
}

// RestoreShard bootstraps a shard that has no state yet from ch: the
// corpus is ch.Add in ch.Sources order (possibly empty), served under
// the pushed mediation, target and p-mappings.
func RestoreShard(ch ShardChange, cfg Config) (*System, error) {
	srcs, maps, _, err := ch.resolve(nil)
	if err != nil {
		return nil, err
	}
	corpus, err := schema.NewCorpus(ch.Domain, srcs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return Restore(corpus, cfg, ch.Med, maps, ch.Target)
}

// ShardRestructure installs ch under one commit and one published epoch;
// it builds nothing. Unlike RemoveSource it may empty the shard: "last
// source" is a global property only the coordinator can judge.
// All-or-nothing: a change resolve refuses, or a held source kept with
// its own p-mappings under a Med whose schema sequence is not the served
// one (they are indexed by it), fails the commit with the writer state
// untouched.
func (s *System) ShardRestructure(ch ShardChange) error {
	return s.write("shard_restructure", func() (txn, error) {
		srcs, maps, kept, err := ch.resolve(s)
		if err != nil {
			return txn{}, err
		}
		if kept > 0 && !ch.Med.PMed.SameSequence(s.Med.PMed) {
			return txn{}, fmt.Errorf("core: the mediation's schema sequence is not the one the held p-mappings are indexed by")
		}
		var corpus *schema.Corpus
		if ch.Domain != s.Corpus.Domain || !slices.Equal(srcs, s.Corpus.Sources) {
			if corpus, err = schema.NewCorpus(ch.Domain, srcs); err != nil {
				return txn{}, fmt.Errorf("core: %w", err)
			}
		}
		return txn{install: func() {
			s.Med, s.Target, s.Maps = ch.Med, ch.Target, maps
			if corpus != nil {
				s.Corpus = corpus
				s.buildEngine()
			}
			s.Cfg.Obs.Add("shard.adopt", int64(len(ch.Add)))
		}}, nil
	})
}
