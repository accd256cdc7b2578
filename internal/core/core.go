// Package core assembles the complete UDI system of the paper: fully
// automatic setup (attribute matching → probabilistic mediated schema →
// probabilistic schema mappings → consolidated schema, Figure 2) and
// probabilistic query answering over the p-med-schema or its
// consolidation. SetupUnder runs the same pipeline under a mediation
// decided elsewhere; internal/experiments sets the deterministic
// mediated-schema variants of §7.4 (SingleMed, UnionAll) up through it,
// beside the §7.3 baselines. The consolidated p-mappings are built on
// first use, once per published epoch (Snapshot.ConsMaps): only the
// UDI-Consolidated approach reads them.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Config carries all setup parameters (§7.1 defaults apply to zero
// fields).
type Config struct {
	Mediate mediate.Config
	PMap    pmapping.Config
	// Parallelism bounds the worker goroutines used for the per-source
	// phases (p-mapping construction, and the consolidation a
	// UDI-Consolidated query triggers). Default:
	// GOMAXPROCS. Set to 1 for fully serial setup (the paper's §7.6
	// timings are single-threaded).
	Parallelism int
	// Obs receives setup, solver and query metrics (see internal/obs).
	// Nil means obs.Default; pass obs.Disabled to turn recording off.
	Obs *obs.Registry

	// FeedbackBatch caps how many concurrent feedback submissions one
	// group commit folds under a single WAL fsync and a single snapshot
	// publish (default 64; see SubmitFeedback). It bounds tail latency:
	// a submission waits for at most FeedbackBatch-1 peers' conditioning
	// work before its own barrier.
	FeedbackBatch int
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	// Align the p-mapping similarity with the mediated-schema similarity
	// unless explicitly overridden.
	if c.PMap.Sim == nil {
		c.PMap.Sim = c.Mediate.Sim
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	// The maxent solver inherits the system registry unless overridden.
	if c.PMap.Maxent.Obs == nil {
		c.PMap.Maxent.Obs = c.Obs
	}
	return c
}

// Timings records the four setup phases reported in Figure 7. It is the
// flat legacy view of the setup trace: each field equals the duration of
// the identically-staged span in System.Trace (import, mediate, pmappings,
// consolidate nested under setup). New reporting should prefer the trace.
type Timings struct {
	Import        time.Duration // importing source schemas (tables + similarity matrices)
	MedSchema     time.Duration // creating the p-med-schema
	PMappings     time.Duration // creating p-mappings per source per schema
	Consolidation time.Duration // consolidating the schema (Algorithm 3); mappings consolidate on first use
}

// Total sums the phases.
func (t Timings) Total() time.Duration {
	return t.Import + t.MedSchema + t.PMappings + t.Consolidation
}

// System is a configured data integration system over one corpus.
//
// Serving discipline: the exported fields are the writer's working state.
// Queries never read them directly — they go through Snapshot(), an
// atomic load of the last published epoch — so any number of readers can
// run concurrently with one mutation (AddSources, RemoveSource, feedback),
// which builds the next epoch copy-on-write under the commit lock and
// publishes it atomically. Code that touches the fields directly (setup,
// experiments, tests) must not run concurrently with mutations.
type System struct {
	Corpus *schema.Corpus
	Cfg    Config

	// Med holds the p-med-schema (for the SingleMed/UnionAll variants it
	// contains exactly one schema with probability 1).
	Med *mediate.Result
	// Maps[source][l] is the p-mapping between a source and Med's l-th
	// schema.
	Maps map[string][]*pmapping.PMapping

	// Target is the consolidated mediated schema (§6). The consolidated
	// p-mappings onto it belong to each published epoch (Snapshot.ConsMaps).
	Target *schema.MediatedSchema

	Timings Timings
	// Trace is the setup span tree (setup → import, mediate, pmappings,
	// consolidate); incremental source changes adopt child spans into it.
	// Timings is derived from these spans.
	Trace *obs.Span

	engine *answer.Engine

	// caches holds the setup fast path's interned similarity matrices and
	// schema-dedup caches (see fastpath.go).
	caches *setupCaches

	// snap is the serving snapshot readers load; epoch numbers its
	// commits; commitMu serializes mutations (single-writer); committing
	// reports an in-progress commit for staleness endpoints.
	snap       atomic.Pointer[Snapshot]
	epoch      atomic.Uint64
	commitMu   sync.Mutex
	committing atomic.Bool

	// clog, when set, logs every commit between apply and publish (see
	// CommitLog). Read under commitMu only.
	clog CommitLog

	// fbMu guards the group-commit feedback queue: submissions enqueue
	// under it, and the first submission to find no leader drains the
	// queue in FeedbackBatch-sized batches (see SubmitFeedback). It is
	// never held while committing — the leader reacquires it between
	// batches — so followers enqueue without waiting on conditioning work.
	fbMu     sync.Mutex
	fbQueue  []*feedbackReq
	fbLeader bool
}

// Setup runs the full automatic configuration of Figure 2 over the corpus.
func Setup(c *schema.Corpus, cfg Config) (*System, error) {
	s := importing(c, cfg, "UDI")
	sp := s.Trace.Child("mediate")
	med, err := mediate.Generate(c, s.medConfig())
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: %w", err)
	}
	sp.SetAttr("schemas", med.PMed.Len())
	s.Timings.MedSchema = sp.End()
	return s.setUpUnder(med)
}

// SetupUnder runs the configuration of Figure 2 over the corpus under
// med, a mediation decided elsewhere: the same import, p-mapping and
// consolidation stages Setup runs after generating its own. It is how
// the §7.4 deterministic variants are set up.
func SetupUnder(c *schema.Corpus, cfg Config, med *mediate.Result) (*System, error) {
	if med == nil || med.PMed == nil {
		return nil, fmt.Errorf("core: setup needs a p-med-schema")
	}
	return importing(c, cfg, "given").setUpUnder(med)
}

// MapUnder builds the p-mappings SetupUnder would build for c's sources
// under med, and nothing else: no query engine, no consolidated schema,
// no published epoch and no setup metrics. It is how a shard coordinator
// builds newcomers' p-mappings under the global mediation.
func MapUnder(c *schema.Corpus, cfg Config, med *mediate.Result) (map[string][]*pmapping.PMapping, error) {
	if med == nil || med.PMed == nil {
		return nil, fmt.Errorf("core: mapping needs a p-med-schema")
	}
	s := &System{Corpus: c, Cfg: cfg.withDefaults()}
	s.initCaches()
	s.ensureSims()
	s.coverMembers(med)
	return s.mapSources(c.Sources, med.PMed)
}

// importing starts a system over c: the setup trace, fresh fast-path
// caches and the import stage.
func importing(c *schema.Corpus, cfg Config, variant string) *System {
	s := &System{Corpus: c, Cfg: cfg.withDefaults()}
	s.startTrace(variant)
	s.importSources()
	return s
}

// setUpUnder runs the stages after mediation: every source's p-mappings
// onto med and the consolidated schema. The similarity matrices first
// learn med's member names as hub rows — a no-op when med was generated
// over this corpus, whose frequent attributes they already are — so
// every read p-mapping construction makes stays hub-covered.
func (s *System) setUpUnder(med *mediate.Result) (*System, error) {
	s.Med = med
	s.coverMembers(med)
	if err := s.buildMappings(); err != nil {
		return nil, err
	}
	if err := s.consolidate(); err != nil {
		return nil, err
	}
	s.endTrace()
	return s, nil
}

// coverMembers has the similarity matrices learn med's member names as
// hub rows.
func (s *System) coverMembers(med *mediate.Result) {
	var members []string
	for _, m := range med.PMed.Schemas {
		for _, a := range m.Attrs {
			members = append(members, a...)
		}
	}
	s.extendSims(members)
	s.ensureSimHubs(members)
}

// startTrace roots the setup span tree and attaches fresh fast-path
// caches.
func (s *System) startTrace(variant string) {
	s.initCaches()
	s.Trace = obs.StartSpan("setup")
	s.Trace.SetAttr("variant", variant)
	s.Trace.SetAttr("sources", len(s.Corpus.Sources))
	s.Trace.SetAttr("parallelism", s.Cfg.Parallelism)
}

// importSources builds the query engine and the similarity matrices (the
// "import" stage: one table per source schema, plus the interned
// vocabulary every later stage reads).
func (s *System) importSources() {
	sp := s.Trace.Child("import")
	s.buildEngine()
	s.ensureSims()
	s.Timings.Import = sp.End()
}

// buildEngine builds the query engine over s.Corpus — at setup, and again
// whenever a structural commit installs a different corpus (the engine is
// replaced wholesale, never patched, so published snapshots keep theirs).
// A replacement is its predecessor's successor: it takes over the plan
// cache, whose plans re-resolve only the sources that changed (see
// answer.PlanCache), and the table of every source it keeps, whose
// indexes need no rebuild.
func (s *System) buildEngine() {
	if s.engine != nil {
		s.engine = s.engine.Successor(s.Corpus)
		return
	}
	s.engine = answer.NewEngine(s.Corpus)
	s.engine.Parallelism = s.Cfg.Parallelism
	s.engine.SetObs(s.Cfg.Obs)
}

// endTrace closes the setup span, publishes the freshly built state as
// the first serving snapshot, and reports the per-stage durations to the
// configured registry.
func (s *System) endTrace() {
	total := s.Trace.End()
	s.publish()
	r := s.Cfg.Obs
	if !r.Enabled() {
		return
	}
	r.Add("setup.count", 1)
	r.Observe("setup.seconds", total.Seconds())
	r.Observe("setup.import_seconds", s.Timings.Import.Seconds())
	r.Observe("setup.mediate_seconds", s.Timings.MedSchema.Seconds())
	r.Observe("setup.pmappings_seconds", s.Timings.PMappings.Seconds())
	r.Observe("setup.consolidate_seconds", s.Timings.Consolidation.Seconds())
}

// forEachSource runs fn over srcs on the system's Parallelism workers
// (see eachSource).
func (s *System) forEachSource(srcs []*schema.Source, fn func(src *schema.Source) (any, error), apply func(src *schema.Source, result any)) error {
	return eachSource(s.Cfg.Parallelism, srcs, fn, apply)
}

// eachSource runs fn over srcs using up to workers goroutines,
// collecting the first error. Results are applied through the apply
// callback, which runs in the caller's goroutine — but in COMPLETION
// order, not corpus order, when workers > 1. Every apply callback in
// this package must therefore be commutative (keyed map inserts, never
// order-dependent appends) so that output is identical at any worker
// count; parallel_test.go pins this.
func eachSource(workers int, srcs []*schema.Source, fn func(src *schema.Source) (any, error), apply func(src *schema.Source, result any)) error {
	if workers > len(srcs) {
		workers = len(srcs)
	}
	if workers <= 1 {
		for _, src := range srcs {
			res, err := fn(src)
			if err != nil {
				return err
			}
			apply(src, res)
		}
		return nil
	}
	type outcome struct {
		idx int
		res any
		err error
	}
	jobs := make(chan int)
	results := make(chan outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				res, err := fn(srcs[idx])
				results <- outcome{idx, res, err}
			}
		}()
	}
	go func() {
		for i := range srcs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for o := range results {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if firstErr == nil {
			apply(srcs[o.idx], o.res)
		}
	}
	return firstErr
}

func (s *System) buildMappings() error {
	sp := s.Trace.Child("pmappings")
	var err error
	s.Maps, err = s.mapSources(s.Corpus.Sources, s.Med.PMed)
	s.Timings.PMappings = sp.End()
	return err
}

// mapSources builds the per-schema p-mappings of srcs onto pmed in
// parallel: every source at setup, the newcomers when the corpus grows.
func (s *System) mapSources(srcs []*schema.Source, pmed *schema.PMedSchema) (map[string][]*pmapping.PMapping, error) {
	s.caches.fillRows(srcs, pmed, s.pmapConfig())
	maps := make(map[string][]*pmapping.PMapping, len(srcs))
	perSource := s.Cfg.Obs.Histogram("setup.pmapping_source_seconds")
	err := s.forEachSource(srcs,
		func(src *schema.Source) (any, error) {
			t0 := time.Now()
			pms, err := s.buildSourceMappings(src, pmed)
			if err != nil {
				return nil, err
			}
			perSource.Observe(time.Since(t0).Seconds())
			return pms, nil
		},
		// apply runs in completion order; the keyed insert is commutative.
		func(src *schema.Source, res any) {
			maps[src.Name] = res.([]*pmapping.PMapping)
		})
	return maps, err
}

// consolidate builds the consolidated schema (Algorithm 3). The
// consolidated p-mappings onto it wait for the first UDI-Consolidated
// query of each epoch (see consolidateOnce).
func (s *System) consolidate() error {
	sp := s.Trace.Child("consolidate")
	target, err := consolidate.SchemaP(s.Med.PMed, s.Cfg.Parallelism)
	if err != nil {
		sp.End()
		return fmt.Errorf("core: %w", err)
	}
	s.Target = target
	s.Timings.Consolidation = sp.End()
	return nil
}

// Restore rebuilds a ready-to-query System from previously computed setup
// artifacts (used by the persistence layer): it reconstructs the query
// engine but does not re-run matching, enumeration or entropy
// maximization.
func Restore(c *schema.Corpus, cfg Config, med *mediate.Result,
	maps map[string][]*pmapping.PMapping, target *schema.MediatedSchema) (*System, error) {
	if med == nil || med.PMed == nil {
		return nil, fmt.Errorf("core: restore needs a p-med-schema")
	}
	for _, src := range c.Sources {
		if len(maps[src.Name]) != med.PMed.Len() {
			return nil, fmt.Errorf("core: restore: source %q has %d p-mappings for %d schemas",
				src.Name, len(maps[src.Name]), med.PMed.Len())
		}
	}
	s := importing(c, cfg, "restore")
	s.Med, s.Maps, s.Target = med, maps, target
	s.endTrace()
	return s, nil
}

// Approach names one of the system's two query-answering semantics.
type Approach string

const (
	// UDI answers over the p-med-schema (Definition 3.3).
	UDI Approach = "UDI"
	// Consolidated answers over the consolidated schema and p-mappings
	// (§6); Theorem 6.2 makes the answers equal to UDI's.
	Consolidated Approach = "UDI-Consolidated"
)

// ParseApproach reads an approach name from outside the program: "" is
// UDI, and anything but the two approach names is an error.
func ParseApproach(name string) (Approach, error) {
	switch a := Approach(name); a {
	case "":
		return UDI, nil
	case UDI, Consolidated:
		return a, nil
	}
	return "", fmt.Errorf("core: unknown approach %q (want %s or %s)", name, UDI, Consolidated)
}

// Query parses and answers q with the UDI semantics (Definition 3.3 over
// the p-med-schema; answers ranked by probability). It serves from the
// current snapshot; the Snapshot methods take a context to bound the work
// with a deadline. Query, QueryParsed and Run are the evaluation entry
// points: their results list the instances §7.1 scores, which the
// serving path (Snapshot.RunCtx) does not build.
func (s *System) Query(q string) (*answer.ResultSet, error) {
	parsed, err := sqlparse.Parse(q)
	if err != nil {
		return nil, err
	}
	return s.QueryParsed(parsed)
}

// QueryParsed answers an already-parsed query with UDI semantics against
// the current snapshot.
func (s *System) QueryParsed(q *sqlparse.Query) (*answer.ResultSet, error) {
	return s.Snapshot().RunInstancesCtx(context.Background(), UDI, q)
}

// Engine exposes the query engine for serving-path tuning (plan cache,
// index toggles). The engine is replaced wholesale when the corpus
// changes (AddSources / RemoveSource), so don't hold the pointer across
// those calls. It is the writer-side engine: tune it before serving
// concurrent traffic.
func (s *System) Engine() *answer.Engine { return s.engine }

// Run answers q under approach a against the current snapshot, instances
// listed.
func (s *System) Run(a Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return s.Snapshot().RunInstancesCtx(context.Background(), a, q)
}

// ExplainAnswer returns the provenance of one answer tuple under the UDI
// semantics: every (source, schema, mapping) path that produced it, with
// its probability mass (see answer.Contribution).
func (s *System) ExplainAnswer(q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	return s.Snapshot().ExplainCtx(context.Background(), q, values)
}

// RepresentativeName returns the most frequent source attribute of the
// cluster containing name in the consolidated schema, the name the system
// would expose to users (§3). Returns name itself if unclustered.
func (s *System) RepresentativeName(name string) string {
	return s.Snapshot().RepresentativeName(name)
}
