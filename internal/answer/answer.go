// Package answer implements probabilistic query answering under by-table
// semantics (paper §2–3, Definition 3.3):
//
//   - per source and per possible mediated schema, the query is rewritten
//     under every possible mapping and each answer tuple accumulates the
//     probabilities of the mappings that produce it;
//   - across possible mediated schemas, tuple probabilities are weighted by
//     the schema probabilities and summed;
//   - across sources, probabilities combine by independent disjunction
//     p = 1 − Π(1 − p_i).
//
// A scan (ScanPMed, ScanConsolidated) produces a part: per-occurrence
// instances (one per matching source row, used by the precision/recall
// evaluation which keeps duplicates, §7.1) and every contributing
// source's tuple probabilities. Rank alone combines a part's sources into
// the ranked deduplicated answer list (used for the R-P curves of §7.4,
// where duplicates are eliminated and probabilities combined), and
// MergeResultSets gathers the parts of a partitioned corpus into one
// before ranking it the same way.
package answer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/consolidate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
	"udi/internal/storage"
)

// Instance is one answer occurrence: the values a particular source row
// contributes under at least one mapping, with its accumulated by-table
// probability for that (row, values) pair.
type Instance struct {
	Source string
	Row    int
	Values []string
	Prob   float64
}

// Answer is a deduplicated answer tuple with its cross-source combined
// probability.
type Answer struct {
	Values []string
	Prob   float64
}

// SourceTupleProbs carries one source's by-table tuple probabilities:
// for each distinct tuple (keyed by its joined values) the total
// probability of the mappings under which the source produces it.
type SourceTupleProbs struct {
	Source string
	Probs  map[string]float64
}

// TupleKey joins tuple values into the key used by SourceTupleProbs.
func TupleKey(values []string) string { return tupleKey(values) }

// ResultSet bundles the views of a query result. A part — what a scan
// returns, and what a shard leg hands the merge — carries Instances and
// PerSource only; Ranked is nil on it until Rank sets it.
type ResultSet struct {
	// Instances is per-occurrence, duplicates preserved, in (source, row,
	// values) order.
	Instances []Instance
	// Ranked is deduplicated, sorted by descending probability.
	Ranked []Answer
	// PerSource lists each contributing source's tuple probabilities, in
	// source order; the Ranked probabilities are their independent
	// disjunction.
	PerSource []SourceTupleProbs
}

// ByTupleRanking recomputes the ranked answers under by-tuple semantics
// (Dong et al.'s alternative to the by-table semantics the paper adopts,
// §3): instead of one mapping applying to a whole source table, every
// tuple draws its mapping independently, so a tuple appearing in several
// rows combines by disjunction across rows as well as across sources:
// p(t) = 1 − Π_{(source,row)} (1 − p_{row,t}).
//
// By-tuple probabilities dominate by-table ones (more independent chances
// to produce the tuple) and coincide when every tuple occurs in at most
// one row per source.
func (rs *ResultSet) ByTupleRanking() []Answer {
	return selectTopK(rs.byTupleProbs(), 0)
}

// Engine answers queries over a corpus.
type Engine struct {
	corpus *schema.Corpus
	tables map[string]*storage.Table
	// Parallelism bounds the worker goroutines scanning sources during
	// query answering (sources are independent; results merge in source
	// order, so answers are deterministic). Defaults to GOMAXPROCS.
	Parallelism int
	// Obs receives per-scan metrics: histograms query.seconds (scan
	// latency) and query.instances (answer occurrences), and counters
	// query.count, query.canceled, plan_cache.hits, plan_cache.misses,
	// plan_cache.invalidations. Ranking is not a scan: whoever calls Rank
	// times it. Nil disables recording. Set it through
	// SetObs so the per-table index metrics share the registry.
	Obs *obs.Registry
	// Plans caches resolved ScanPMed query plans. Always non-nil on an
	// Engine from NewEngine. Callers that mutate p-mappings in place must
	// call InvalidatePlans (see the PlanCache invalidation contract).
	Plans *PlanCache
}

// NewEngine builds table wrappers for every source.
func NewEngine(c *schema.Corpus) *Engine {
	e := &Engine{
		corpus:      c,
		tables:      make(map[string]*storage.Table, len(c.Sources)),
		Parallelism: runtime.GOMAXPROCS(0),
		Plans:       NewPlanCache(),
	}
	for _, s := range c.Sources {
		e.tables[s.Name] = storage.NewTable(s)
	}
	return e
}

// SetObs sets the metrics registry on the engine and on every source
// table, so query-level and index-level counters land in one place. A
// setup-time knob, like the tables' own Obs fields.
func (e *Engine) SetObs(r *obs.Registry) {
	e.Obs = r
	for _, t := range e.tables {
		t.Obs = r
	}
}

// SetIndexing toggles the tables' equality-predicate pushdown indexes.
// Off forces full scans (differential testing and ablations).
func (e *Engine) SetIndexing(on bool) {
	for _, t := range e.tables {
		t.NoIndex = !on
	}
}

// InvalidatePlans drops all cached query plans. Callers must invoke it
// after mutating any p-mapping in place (feedback conditioning does);
// corpus changes instead rebuild the Engine, which starts a fresh cache.
func (e *Engine) InvalidatePlans() {
	e.Plans.Invalidate()
	if e.Obs.Enabled() {
		e.Obs.Add("plan_cache.invalidations", 1)
	}
}

// runPerSource evaluates work for every source — in parallel when
// Parallelism allows — into per-source accumulators, then concatenates
// them in source order into one part, identical to a serial run's. It
// does not combine sources: that is Rank's job. The context is
// checked before each source is dispatched (and, via the table scans,
// every cancelCheckRows rows inside one), so an expired deadline stops
// the query instead of letting it run to completion; cancellation is
// reported through the query.canceled counter.
func (e *Engine) runPerSource(ctx context.Context, work func(ctx context.Context, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
	rs, err := e.runPerSourceInner(ctx, work)
	if err != nil && isCancellation(err) && e.Obs.Enabled() {
		e.Obs.Add("query.canceled", 1)
	}
	return rs, err
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (e *Engine) runPerSourceInner(ctx context.Context, work func(ctx context.Context, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(e.corpus.Sources)
	accs := make([]*accumulator, n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	// run evaluates sources in turn until none is left or one fails. A
	// source that matched no row leaves its accumulator untouched, and the
	// next source reuses it.
	run := func() {
		acc := newAccumulator()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			err := ctx.Err()
			if err == nil {
				err = work(ctx, e.corpus.Sources[i], acc)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			if len(acc.instList) == 0 {
				continue
			}
			acc.finishSource()
			accs[i] = acc
			acc = newAccumulator()
		}
	}
	if workers := min(e.Parallelism, n); workers <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	part, total := &ResultSet{}, 0
	for _, acc := range accs {
		if acc != nil {
			total += len(acc.instList)
		}
	}
	if total > 0 {
		part.Instances = make([]Instance, 0, total)
	}
	for _, acc := range accs {
		if acc != nil {
			part.Instances = append(part.Instances, acc.instList...)
			part.PerSource = append(part.PerSource, acc.tupleProbs...)
		}
	}
	sortInstances(part.Instances)
	if e.Obs.Enabled() {
		e.Obs.Add("query.count", 1)
		e.Obs.Observe("query.seconds", time.Since(t0).Seconds())
		e.Obs.Observe("query.instances", float64(len(part.Instances)))
	}
	return part, nil
}

// Corpus returns the engine's corpus.
func (e *Engine) Corpus() *schema.Corpus { return e.corpus }

// Tables exposes the per-source tables for setup-time tuning of their
// index knobs (Obs, NoIndex, IndexThreshold). The map itself must not be
// mutated.
func (e *Engine) Tables() map[string]*storage.Table { return e.tables }

// PMedInput carries a p-med-schema and, for every source, one p-mapping per
// possible mediated schema.
type PMedInput struct {
	PMed *schema.PMedSchema
	// Maps[sourceName][l] is the p-mapping between the source and
	// PMed.Schemas[l].
	Maps map[string][]*pmapping.PMapping
}

// AnswerPMed answers q over the probabilistic mediated schema per
// Definition 3.3: the ranked ScanPMed part.
func (e *Engine) AnswerPMed(in PMedInput, q *sqlparse.Query) (*ResultSet, error) {
	rs, err := e.ScanPMed(context.Background(), in, q)
	if err != nil {
		return nil, err
	}
	return Rank(rs), nil
}

// ScanPMed evaluates q over the probabilistic mediated schema per
// Definition 3.3 into a part (see ResultSet). Query attributes are
// source-attribute names; each is replaced by the mediated attribute
// (cluster) containing it. A possible schema that does not mediate some
// query attribute contributes nothing; a mapping that leaves some query
// attribute unmapped contributes nothing. The per-source scan loops poll
// ctx, so a request deadline stops the query early with ctx.Err() instead
// of serving a late answer.
func (e *Engine) ScanPMed(ctx context.Context, in PMedInput, q *sqlparse.Query) (*ResultSet, error) {
	key, attrs := planKey(q)
	if plan, ok := e.Plans.lookup(in, key); ok {
		if e.Obs.Enabled() {
			e.Obs.Add("plan_cache.hits", 1)
		}
		return e.answerWithPlan(ctx, plan, q)
	}
	plan, err := e.buildPlan(in, attrs)
	if err != nil {
		return nil, err
	}
	e.Plans.store(in, key, plan)
	if e.Obs.Enabled() {
		e.Obs.Add("plan_cache.misses", 1)
	}
	return e.answerWithPlan(ctx, plan, q)
}

// AnswerConsolidated answers q over the consolidated mediated schema T and
// the consolidated one-to-many p-mappings (§6): the ranked
// ScanConsolidated part. By Theorem 6.2 the result equals AnswerPMed on
// the originating p-med-schema.
func (e *Engine) AnswerConsolidated(target *schema.MediatedSchema, maps map[string]*consolidate.PMapping, q *sqlparse.Query) (*ResultSet, error) {
	rs, err := e.ScanConsolidated(context.Background(), target, maps, q)
	if err != nil {
		return nil, err
	}
	return Rank(rs), nil
}

// ScanConsolidated evaluates q over the consolidated schema and
// p-mappings into a part, under a context (see ScanPMed).
func (e *Engine) ScanConsolidated(ctx context.Context, target *schema.MediatedSchema, maps map[string]*consolidate.PMapping, q *sqlparse.Query) (*ResultSet, error) {
	medIdxs, ok := queryMedIdxs(q, target)
	if !ok {
		return &ResultSet{}, nil // query attribute not mediated
	}
	return e.runPerSource(ctx, func(ctx context.Context, src *schema.Source, acc *accumulator) error {
		cpm := maps[src.Name]
		if cpm == nil {
			return fmt.Errorf("answer: no consolidated p-mapping for source %q", src.Name)
		}
		for _, m := range cpm.Mappings {
			if m.Prob == 0 {
				continue
			}
			if err := e.scanAssignment(ctx, acc, src.Name, q, medIdxs, m.MedToSrc(), m.Prob); err != nil {
				return err
			}
		}
		return nil
	})
}

// scanAssignment rewrites q under one (mediated→source) assignment, scans
// the source table and accumulates weight for each matching row. An
// assignment that leaves any query attribute unmapped contributes nothing
// (by-table semantics over one-to-one mappings).
func (e *Engine) scanAssignment(ctx context.Context, acc *accumulator, source string, q *sqlparse.Query, medIdxs map[string]int, medToSrc map[int]string, weight float64) error {
	project := make([]string, len(q.Select))
	for i, a := range q.Select {
		srcAttr, ok := medToSrc[medIdxs[a]]
		if !ok {
			return nil
		}
		project[i] = srcAttr
	}
	preds := make([]storage.Pred, len(q.Where))
	for i, p := range q.Where {
		srcAttr, ok := medToSrc[medIdxs[p.Attr]]
		if !ok {
			return nil
		}
		preds[i] = storage.Pred{Attr: srcAttr, Op: p.Op, Literal: p.Literal}
	}
	idxs, rows, err := e.tables[source].SelectIdxCtx(ctx, project, preds)
	if err != nil {
		if isCancellation(err) {
			return err
		}
		return fmt.Errorf("answer: %w", err)
	}
	acc.addAssignment(source, idxs, rows, weight)
	return nil
}

// queryMedIdxs resolves every query attribute to the index of its cluster
// in med; ok is false if any attribute is not mediated.
func queryMedIdxs(q *sqlparse.Query, med *schema.MediatedSchema) (map[string]int, bool) {
	return attrsMedIdxs(q.Attrs(), med)
}

// accumulator gathers one source's per-row instance probabilities and
// tuple probabilities.
type accumulator struct {
	// instances finds an instance's index in instList, which holds them
	// in first-seen order, by (source, row, values). Keys never collide
	// across sources, so a part concatenates lists and needs no lookup.
	instances map[instKey]int
	instList  []Instance

	// curTupleProb accumulates the current source's per-tuple by-table
	// probability: within one assignment a tuple counts once (set
	// semantics), across assignments its weights sum.
	curSource    string
	curTupleProb map[string]float64
	tupleProbs   []SourceTupleProbs // one entry per finished source
	// seen is the tuple set of the assignment being added, reused across
	// assignments.
	seen map[string]bool
}

type instKey struct {
	source string
	row    int
	tuple  string
}

// newAccumulator returns an empty accumulator; addAssignment allocates
// the maps it writes, sized to what it first sees.
func newAccumulator() *accumulator { return &accumulator{} }

func tupleKey(values []string) string { return strings.Join(values, "\x1f") }

// addAssignment records the result of scanning one source under one
// mapping assignment carrying the given probability weight: every matching
// (row, values) occurrence accumulates the weight, and each distinct tuple
// accumulates it once (by-table set semantics). rows are the scan's own
// projections, which a new instance keeps as its Values. An accumulator
// adds one source's assignments, between finishSource calls.
func (a *accumulator) addAssignment(source string, rowIdxs []int, rows [][]string, weight float64) {
	if len(rowIdxs) == 0 {
		return
	}
	a.curSource = source
	if a.instances == nil {
		// The source's first assignment sizes the maps once instead of
		// growing them row by row.
		a.instances = make(map[instKey]int, len(rows))
		a.instList = make([]Instance, 0, len(rows))
		a.curTupleProb = make(map[string]float64, len(rows))
		a.seen = make(map[string]bool, len(rows))
	}
	clear(a.seen)
	for i, r := range rowIdxs {
		values := rows[i]
		tk := tupleKey(values)
		ik := instKey{source, r, tk}
		if j, ok := a.instances[ik]; ok {
			a.instList[j].Prob += weight
		} else {
			a.instances[ik] = len(a.instList)
			a.instList = append(a.instList, Instance{Source: source, Row: r, Values: values, Prob: weight})
		}
		if !a.seen[tk] {
			a.seen[tk] = true
			a.curTupleProb[tk] += weight
		}
	}
}

// finishSource closes the per-source tuple accumulation into the
// source's SourceTupleProbs entry.
func (a *accumulator) finishSource() {
	if len(a.curTupleProb) == 0 {
		return
	}
	a.tupleProbs = append(a.tupleProbs, SourceTupleProbs{Source: a.curSource, Probs: a.curTupleProb})
	a.curTupleProb = make(map[string]float64)
	a.curSource = ""
}
