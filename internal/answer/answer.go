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
// A scan (ScanPMed, ScanConsolidated) produces a part: every contributing
// source's tuple probabilities and its occurrence count — the distinct
// (row, tuple) pairs it produced — and, only when the caller asks for
// them (WithInstances), the occurrences themselves as instances (used by
// by-tuple ranking and by the precision/recall evaluation, which keeps
// duplicates, §7.1). Rank alone combines a part's sources into the
// ranked deduplicated answer list (used for the R-P curves of §7.4, where
// duplicates are eliminated and probabilities combined), and
// MergeResultSets gathers the parts of a partitioned corpus into one
// before ranking it the same way.
//
// ScanPMed resolves the rewrites once per queried attribute set into a
// plan the engine caches (PlanCache). A plan records the schema sequence,
// sources and p-mappings it was resolved from, and takes the schema
// probabilities from each query, so a commit never has to invalidate
// it: the next query re-resolves only the sources that changed.
package answer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// Occurrences counts the source's distinct (row, tuple) pairs: its
	// instances, whether or not the scan listed them.
	Occurrences int
}

// TupleKey joins tuple values into the key used by SourceTupleProbs.
func TupleKey(values []string) string { return tupleKey(values) }

// Detail says what a scan keeps of the answer occurrences it finds.
type Detail uint8

const (
	// CountOnly keeps each source's occurrence count: all the by-table
	// answer (Definition 3.3) and its /v1/query response read.
	CountOnly Detail = iota
	// WithInstances also lists every occurrence as an Instance: what
	// by-tuple ranking and the §7.1 evaluation read.
	WithInstances
)

// ResultSet bundles the views of a query result. A part — what a scan
// returns, and what a shard leg hands the merge — carries PerSource and,
// when the scan listed them, Instances; Ranked is nil on it until Rank
// sets it.
type ResultSet struct {
	// Instances is per-occurrence, duplicates preserved, in (source, row,
	// values) order. Nil unless the scan ran WithInstances.
	Instances []Instance
	// Ranked is deduplicated, sorted by descending probability.
	Ranked []Answer
	// PerSource lists each contributing source's tuple probabilities, in
	// source order; the Ranked probabilities are their independent
	// disjunction.
	PerSource []SourceTupleProbs
}

// Occurrences is the number of answer occurrences — distinct (source
// row, tuple) pairs — in the result: the sum of the per-source counts,
// which equals len(Instances) when the scan listed them.
func (rs *ResultSet) Occurrences() int {
	n := 0
	for _, sp := range rs.PerSource {
		n += sp.Occurrences
	}
	return n
}

// ByTupleRanking recomputes the ranked answers under by-tuple semantics
// (Dong et al.'s alternative to the by-table semantics the paper adopts,
// §3) from the instances, so it needs a WithInstances scan: instead of
// one mapping applying to a whole source table, every tuple draws its
// mapping independently, so a tuple appearing in several rows combines
// by disjunction across rows as well as across sources:
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
	// latency) and query.instances (answer occurrences, counted whether
	// or not the scan lists them), and counters
	// query.count, query.canceled, plan_cache.hits, plan_cache.misses,
	// plan_cache.resolved_sources, plan_cache.invalidations. Ranking is
	// not a scan: whoever calls Rank times it. Nil disables recording.
	// Set it through SetObs so the per-table index metrics share the
	// registry.
	Obs *obs.Registry
	// Plans caches resolved ScanPMed query plans. Always non-nil on an
	// Engine from NewEngine; an engine built over a changed corpus may
	// take over its predecessor's (see PlanCache).
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

// InvalidatePlans drops all cached query plans, so the next query of
// every attribute set resolves its plan from scratch. No commit needs it
// (see PlanCache); it is how a cold plan is measured, and the one way to
// recover from a p-mapping mutated in place.
func (e *Engine) InvalidatePlans() {
	e.Plans.Invalidate()
	if e.Obs.Enabled() {
		e.Obs.Add("plan_cache.invalidations", 1)
	}
}

// runPerSource evaluates work for every source — in parallel when
// Parallelism allows — into per-source results, then gathers them in
// source order into one part, identical to a serial run's. It does not
// combine sources: that is Rank's job. d says whether the part lists
// instances. The context is checked before each source is dispatched
// (and, via the table scans, every cancelCheckRows rows inside one), so
// an expired deadline stops the query instead of letting it run to
// completion; cancellation is reported through the query.canceled
// counter.
func (e *Engine) runPerSource(ctx context.Context, d Detail, work func(ctx context.Context, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
	rs, err := e.runPerSourceInner(ctx, d, work)
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

// sourceResult is what one source contributes to a part; a source that
// matched no row leaves it zero.
type sourceResult struct {
	probs SourceTupleProbs
	insts []Instance
}

func (e *Engine) runPerSourceInner(ctx context.Context, d Detail, work func(ctx context.Context, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(e.corpus.Sources)
	results := make([]sourceResult, n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	// run evaluates sources in turn until none is left or one fails, on
	// one accumulator whose scratch every source it takes reuses.
	run := func() {
		acc := newAccumulator(d)
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
			results[i] = acc.finishSource()
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
	for _, r := range results {
		if r.probs.Occurrences > 0 {
			part.PerSource = append(part.PerSource, r.probs)
			total += r.probs.Occurrences
		}
	}
	if d == WithInstances && total > 0 {
		part.Instances = make([]Instance, 0, total)
		for _, r := range results {
			part.Instances = append(part.Instances, r.insts...)
		}
		sortInstances(part.Instances)
	}
	if e.Obs.Enabled() {
		e.Obs.Add("query.count", 1)
		e.Obs.Observe("query.seconds", time.Since(t0).Seconds())
		e.Obs.Observe("query.instances", float64(total))
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
// Definition 3.3: the ranked ScanPMed part, instances listed.
func (e *Engine) AnswerPMed(in PMedInput, q *sqlparse.Query) (*ResultSet, error) {
	rs, err := e.ScanPMed(context.Background(), in, q, WithInstances)
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
// attribute unmapped contributes nothing. d says whether the part lists
// instances. The per-source scan loops poll ctx, so a request deadline
// stops the query early with ctx.Err() instead of serving a late answer.
func (e *Engine) ScanPMed(ctx context.Context, in PMedInput, q *sqlparse.Query, d Detail) (*ResultSet, error) {
	plan, err := e.plan(in, q)
	if err != nil {
		return nil, err
	}
	return e.answerWithPlan(ctx, plan, in.PMed.Probs, q, d)
}

// AnswerConsolidated answers q over the consolidated mediated schema T and
// the consolidated one-to-many p-mappings (§6): the ranked
// ScanConsolidated part, instances listed. By Theorem 6.2 the result
// equals AnswerPMed on the originating p-med-schema.
func (e *Engine) AnswerConsolidated(target *schema.MediatedSchema, maps map[string]*consolidate.PMapping, q *sqlparse.Query) (*ResultSet, error) {
	rs, err := e.ScanConsolidated(context.Background(), target, maps, q, WithInstances)
	if err != nil {
		return nil, err
	}
	return Rank(rs), nil
}

// ScanConsolidated evaluates q over the consolidated schema and
// p-mappings into a part, under a context (see ScanPMed).
func (e *Engine) ScanConsolidated(ctx context.Context, target *schema.MediatedSchema, maps map[string]*consolidate.PMapping, q *sqlparse.Query, d Detail) (*ResultSet, error) {
	medIdxs, ok := queryMedIdxs(q, target)
	if !ok {
		return &ResultSet{}, nil // query attribute not mediated
	}
	return e.runPerSource(ctx, d, func(ctx context.Context, src *schema.Source, acc *accumulator) error {
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
	attrs := slices.Clone(q.Select)
	for _, p := range q.Where {
		attrs = append(attrs, p.Attr)
	}
	for i, a := range attrs {
		srcAttr, ok := medToSrc[medIdxs[a]]
		if !ok {
			return nil
		}
		attrs[i] = srcAttr
	}
	tbl := e.tables[source]
	cols, err := tbl.Cols(attrs)
	if err != nil {
		return fmt.Errorf("answer: %w", err)
	}
	rows, err := tbl.MatchCtx(ctx, q.Where, cols[len(q.Select):])
	if err != nil {
		return err
	}
	acc.addAssignment(source, rows, tbl.Source.Rows, cols[:len(q.Select)], weight)
	return nil
}

// queryMedIdxs resolves every query attribute to the index of its cluster
// in med; ok is false if any attribute is not mediated.
func queryMedIdxs(q *sqlparse.Query, med *schema.MediatedSchema) (map[string]int, bool) {
	attrs := q.Attrs()
	idxs := attrsMedIdxs(attrs, med)
	if idxs == nil {
		return nil, false
	}
	out := make(map[string]int, len(attrs))
	for i, a := range attrs {
		out[a] = idxs[i]
	}
	return out, true
}

// accumulator gathers the answer occurrences of one source at a time —
// between finishSource calls — into its tuple probabilities, its
// occurrence count and, WithInstances, its instance list. Everything but
// what finishSource hands out is scratch the next source reuses.
type accumulator struct {
	detail Detail
	source string

	// tuples finds a tuple's index in tups by its key.
	tuples map[string]int32
	tups   []tupleAcc
	// occs are the source's occurrences, its distinct (row, tuple) pairs,
	// in first-seen order. rowOcc[r] is 1 + the index of row r's first
	// occurrence (0: none yet); a row that projects to a second tuple
	// under another assignment finds that occurrence through extra.
	occs   []occurrence
	rowOcc []int32
	extra  map[occKey]int32

	// assignment numbers the added assignments, so a tuple adds each
	// assignment's weight once however many rows produce it.
	assignment int
	key        []byte // scratch: the tuple key being looked up
}

// tupleAcc is one distinct tuple of the current source.
type tupleAcc struct {
	key    string
	values []string
	// prob is the source's by-table probability for the tuple: within one
	// assignment the tuple counts once (set semantics), across
	// assignments its weights sum. stamp is the last assignment added.
	prob  float64
	stamp int
}

// occurrence is one (row, tuple) pair with its accumulated probability.
type occurrence struct {
	row   int
	tuple int32
	prob  float64
}

type occKey struct {
	row   int
	tuple int32
}

func newAccumulator(d Detail) *accumulator {
	return &accumulator{detail: d, tuples: make(map[string]int32)}
}

func tupleKey(values []string) string { return strings.Join(values, "\x1f") }

// addAssignment records the result of scanning one source under one
// mapping assignment carrying the given probability weight: every matching
// row rowIdxs names, projected through cols, is a (row, values)
// occurrence that accumulates the weight, and each distinct tuple
// accumulates it once (by-table set semantics). rows are the source's
// rows; a tuple copies its first row's projection as its Values.
func (a *accumulator) addAssignment(source string, rowIdxs []int, rows [][]string, cols []int, weight float64) {
	if len(rowIdxs) == 0 {
		return
	}
	a.source = source
	a.assignment++
	for _, r := range rowIdxs {
		row := rows[r]
		a.key = a.key[:0]
		for j, c := range cols {
			if j > 0 {
				a.key = append(a.key, '\x1f')
			}
			a.key = append(a.key, row[c]...)
		}
		t, ok := a.tuples[string(a.key)]
		if !ok {
			t = int32(len(a.tups))
			k := string(a.key)
			a.tuples[k] = t
			values := make([]string, len(cols))
			for j, c := range cols {
				values[j] = row[c]
			}
			a.tups = append(a.tups, tupleAcc{key: k, values: values})
		}
		if tu := &a.tups[t]; tu.stamp != a.assignment {
			tu.stamp = a.assignment
			tu.prob += weight
		}
		a.addOccurrence(r, t, weight)
	}
}

// addOccurrence adds weight to the (row, tuple) occurrence, creating it
// on first sight.
func (a *accumulator) addOccurrence(row int, t int32, weight float64) {
	if row >= len(a.rowOcc) {
		grown := make([]int32, max(row+1, 2*len(a.rowOcc)))
		copy(grown, a.rowOcc)
		a.rowOcc = grown
	}
	first := a.rowOcc[row]
	switch {
	case first == 0:
		a.rowOcc[row] = int32(len(a.occs)) + 1
	case a.occs[first-1].tuple == t:
		a.occs[first-1].prob += weight
		return
	default:
		k := occKey{row, t}
		if j, ok := a.extra[k]; ok {
			a.occs[j].prob += weight
			return
		}
		if a.extra == nil {
			a.extra = make(map[occKey]int32)
		}
		a.extra[k] = int32(len(a.occs))
	}
	a.occs = append(a.occs, occurrence{row: row, tuple: t, prob: weight})
}

// finishSource hands out the current source's result — zero when it
// matched no row — and resets the scratch for the next source.
func (a *accumulator) finishSource() sourceResult {
	if len(a.occs) == 0 {
		return sourceResult{}
	}
	probs := make(map[string]float64, len(a.tups))
	for _, tu := range a.tups {
		probs[tu.key] = tu.prob
	}
	res := sourceResult{probs: SourceTupleProbs{Source: a.source, Probs: probs, Occurrences: len(a.occs)}}
	if a.detail == WithInstances {
		res.insts = make([]Instance, len(a.occs))
		for i, o := range a.occs {
			res.insts[i] = Instance{Source: a.source, Row: o.row, Values: a.tups[o.tuple].values, Prob: o.prob}
		}
	}
	for _, o := range a.occs {
		a.rowOcc[o.row] = 0
	}
	clear(a.tuples)
	clear(a.extra)
	a.tups, a.occs, a.source = a.tups[:0], a.occs[:0], ""
	return res
}
