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
// A scan (ScanPMed, ScanConsolidated) produces a part: a tuple table
// listing every distinct tuple once, every contributing source's run of
// (tuple id, probability) pairs and its occurrence count — the distinct
// (row, tuple) pairs it produced — and, only when the caller asks for
// them (WithInstances), the occurrences themselves as instances (used by
// by-tuple ranking and by the precision/recall evaluation, which keeps
// duplicates, §7.1). Rank alone combines a part's runs into the ranked
// deduplicated answer list (used for the R-P curves of §7.4, where
// duplicates are eliminated and probabilities combined), multiplying
// into one dense per-tuple array, and MergeResultSets gathers the parts
// of a partitioned corpus into one — one table lookup per part tuple,
// none per run entry — before ranking it the same way.
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

// Tuple is one entry of a part's tuple table.
type Tuple struct {
	// Key is TupleKey(Values): the tuple's identity in the combine.
	Key    string
	Values []string
}

// SourceTupleProbs carries one source's by-table tuple probabilities as
// a run: for each distinct tuple it produces, in first-seen order, the
// tuple's id in its part's tuple table (ResultSet.Tuples) and the total
// probability of the mappings under which the source produces it.
type SourceTupleProbs struct {
	Source string
	// IDs and Probs are parallel: Probs[i] is the probability of tuple
	// IDs[i]. A source names a tuple at most once.
	IDs   []int32
	Probs []float64
	// Occurrences counts the source's distinct (row, tuple) pairs: its
	// instances, whether or not the scan listed them.
	Occurrences int
}

// TupleKey joins tuple values into the key a tuple table lists each
// tuple under.
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
// returns, and what a shard leg hands the merge — carries Tuples and
// PerSource and, when the scan listed them, Instances; Ranked is nil on
// it until Rank sets it.
type ResultSet struct {
	// Instances is per-occurrence, duplicates preserved, in (source, row,
	// values) order. Nil unless the scan ran WithInstances.
	Instances []Instance
	// Ranked is deduplicated, sorted by descending probability.
	Ranked []Answer
	// Tuples is the tuple table: every distinct tuple the sources
	// produced, one entry per key. A scan lists them in the order the
	// sources, taken in source order, first name them; a merge or a
	// decoded frame may list one no source names, which Rank skips.
	Tuples []Tuple
	// PerSource lists each contributing source's run of tuple
	// probabilities, in source order; the Ranked probabilities are their
	// independent disjunction.
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

// Successor builds the engine that replaces e over c, the corpus a
// structural commit installs. It takes over e's plan cache, parallelism
// and registry, and e's table of every source c still holds (the same
// *schema.Source), so the indexes those tables built lazily survive the
// commit; only a newcomer gets a new table, its Obs set as it is built.
// e itself is left as it was, serving the snapshots that hold it.
func (e *Engine) Successor(c *schema.Corpus) *Engine {
	n := &Engine{
		corpus:      c,
		tables:      make(map[string]*storage.Table, len(c.Sources)),
		Parallelism: e.Parallelism,
		Obs:         e.Obs,
		Plans:       e.Plans,
	}
	for _, s := range c.Sources {
		t := e.tables[s.Name]
		if t == nil || t.Source != s {
			t = storage.NewTable(s)
			t.Obs = e.Obs
		}
		n.tables[s.Name] = t
	}
	return n
}

// SetObs sets the metrics registry on the engine and on every source
// table, so query-level and index-level counters land in one place. A
// setup-time knob for an engine from NewEngine, whose tables are its
// own; a Successor shares its tables with its predecessor and takes the
// predecessor's registry instead.
func (e *Engine) SetObs(r *obs.Registry) {
	e.Obs = r
	for _, t := range e.tables {
		t.Obs = r
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

// runPerSource evaluates work for every source, given its position in
// the corpus — in parallel when Parallelism allows — into per-source
// results, then gathers them in source order into one part, identical
// to a serial run's. It does not combine sources: that is Rank's job.
// d says whether the part lists instances. The context is checked
// before each source is dispatched (and, via the table scans, every
// cancelCheckRows rows inside one), so an expired deadline stops the
// query instead of letting it run to completion; cancellation is
// reported through the query.canceled counter.
func (e *Engine) runPerSource(ctx context.Context, d Detail, work func(ctx context.Context, i int, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
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

// sourceResult is what one source contributes to a part's runs; a
// source that matched no row leaves it zero. ids (indexes in acc's table
// until the gather renumbers them) and probs are windows of the scanning
// worker's run chunks.
type sourceResult struct {
	acc         *accumulator
	occurrences int
	ids         []int32
	probs       []float64
}

func (e *Engine) runPerSourceInner(ctx context.Context, d Detail, work func(ctx context.Context, i int, src *schema.Source, acc *accumulator) error) (*ResultSet, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(e.corpus.Sources)
	results := make([]sourceResult, n)
	var insts [][]Instance
	if d == WithInstances {
		insts = make([][]Instance, n)
	}
	accs := make([]*accumulator, max(1, min(e.Parallelism, n)))
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	// run evaluates sources in turn until none is left or one fails, on
	// one accumulator whose scratch every source it takes reuses.
	run := func(acc *accumulator) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			err := ctx.Err()
			if err == nil {
				err = work(ctx, i, e.corpus.Sources[i], acc)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			var listed []Instance
			results[i], listed = acc.finishSource()
			if insts != nil {
				insts[i] = listed
			}
		}
	}
	for w := range accs {
		accs[w] = newAccumulator(d)
	}
	if len(accs) == 1 {
		run(accs[0])
	} else {
		var wg sync.WaitGroup
		for _, acc := range accs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(acc)
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	part, total := gather(e.corpus.Sources, results, accs), 0
	for _, sp := range part.PerSource {
		total += sp.Occurrences
	}
	if d == WithInstances && total > 0 {
		part.Instances = make([]Instance, 0, total)
		for _, listed := range insts {
			part.Instances = append(part.Instances, listed...)
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

// gather assembles the part from the per-source results of sources, in
// source order, renumbering each worker's tuple indexes to part table
// ids as the sources first name them (see tableMerge): the table's order
// and every run's ids are those of a serial scan whatever the
// scheduling. Runs are renumbered in place and handed out as the windows
// they are.
func gather(sources []*schema.Source, results []sourceResult, accs []*accumulator) *ResultSet {
	part, contributing, distinct := &ResultSet{}, 0, 0
	for _, r := range results {
		if r.occurrences > 0 {
			contributing++
		}
	}
	if contributing == 0 {
		return part
	}
	for _, a := range accs {
		a.partID = make([]int32, len(a.table))
		distinct += len(a.table)
	}
	m := newTableMerge(len(accs), distinct)
	part.PerSource = make([]SourceTupleProbs, 0, contributing)
	for i, r := range results {
		if r.occurrences == 0 {
			continue
		}
		m.renumber(r.ids[:0], r.ids, r.acc.table, r.acc.partID)
		part.PerSource = append(part.PerSource, SourceTupleProbs{
			Source: sources[i].Name, IDs: r.ids, Probs: r.probs, Occurrences: r.occurrences,
		})
	}
	part.Tuples = m.tuples
	return part
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
	where := storage.Compile(q.Where)
	return e.runPerSource(ctx, d, func(ctx context.Context, _ int, src *schema.Source, acc *accumulator) error {
		cpm := maps[src.Name]
		if cpm == nil {
			return fmt.Errorf("answer: no consolidated p-mapping for source %q", src.Name)
		}
		for _, m := range cpm.Mappings {
			if m.Prob == 0 {
				continue
			}
			if err := e.scanAssignment(ctx, acc, src.Name, q, where, medIdxs, m.MedToSrc(), m.Prob); err != nil {
				return err
			}
		}
		return nil
	})
}

// scanAssignment rewrites q, its WHERE compiled as where, under one
// (mediated→source) assignment, scans the source table and accumulates
// weight for each matching row. An assignment that leaves any query
// attribute unmapped contributes nothing (by-table semantics over
// one-to-one mappings).
func (e *Engine) scanAssignment(ctx context.Context, acc *accumulator, source string, q *sqlparse.Query, where []storage.CPred, medIdxs map[string]int, medToSrc map[int]string, weight float64) error {
	tbl := e.tables[source]
	cols, ok, err := assignmentCols(tbl, q, medIdxs, medToSrc)
	if !ok {
		return err
	}
	return acc.scan(ctx, tbl, where, cols[len(q.Select):], cols[:len(q.Select)], weight)
}

// assignmentCols resolves q's SELECT and then its WHERE attributes under
// one (mediated→source) assignment to tbl's columns. ok is false when
// the assignment leaves some query attribute unmapped, or on an error.
func assignmentCols(tbl *storage.Table, q *sqlparse.Query, medIdxs map[string]int, medToSrc map[int]string) (cols []int, ok bool, err error) {
	attrs := make([]string, 0, len(q.Select)+len(q.Where))
	attrs = append(attrs, q.Select...)
	for _, p := range q.Where {
		attrs = append(attrs, p.Attr)
	}
	for i, a := range attrs {
		srcAttr, mapped := medToSrc[medIdxs[a]]
		if !mapped {
			return nil, false, nil
		}
		attrs[i] = srcAttr
	}
	if cols, err = tbl.Cols(attrs); err != nil {
		return nil, false, fmt.Errorf("answer: %w", err)
	}
	return cols, true, nil
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
// between finishSource calls — into its run of tuple probabilities, its
// occurrence count and, WithInstances, its instance list. One worker's
// accumulator serves every source the worker takes within one query:
// the tuples it has met stay interned across them, the runs of every
// source it took stay in its run chunks for the gather, and
// everything else is scratch the next source reuses.
type accumulator struct {
	detail Detail
	source string

	// tuples interns every tuple met during the query by its key, an
	// index in table and tups: a tuple recurring across sources is keyed
	// and projected once. vals holds the projections, arity after arity.
	tuples map[string]int32
	table  []Tuple
	tups   []tupleAcc
	vals   []string
	// runIDs and runProbs are the current run chunk: the runs
	// finishSource closed, back to back, as indexes in table until the
	// gather renumbers them to part ids through partID.
	runIDs   []int32
	runProbs []float64
	partID   []int32
	// seen lists the current source's tuples, indexes in tups, in
	// first-seen order; sourceSeq numbers the sources taken.
	seen      []int32
	sourceSeq int
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
	rows       []int  // scratch: the matching row ids of one scan
	cols       []int  // scratch: one scan's column rewrite
}

// tupleAcc is the per-source state of one distinct tuple met during the
// query.
type tupleAcc struct {
	// prob is the current source's by-table probability for the tuple:
	// within one assignment the tuple counts once (set semantics), across
	// assignments its weights sum. stamp is the last assignment added,
	// source the sourceSeq of the last source that produced the tuple.
	prob   float64
	stamp  int
	source int
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
	return &accumulator{detail: d, tuples: make(map[string]int32), sourceSeq: 1}
}

func tupleKey(values []string) string { return strings.Join(values, "\x1f") }

// scan matches the compiled predicates against tbl's predicate columns
// predCols into the accumulator's row scratch and adds the rows,
// projected through cols, as one assignment of the given weight.
func (a *accumulator) scan(ctx context.Context, tbl *storage.Table, where []storage.CPred, predCols, cols []int, weight float64) error {
	rows, err := tbl.MatchCtx(ctx, a.rows[:0], where, predCols)
	if err != nil {
		return err
	}
	a.rows = rows
	a.addAssignment(tbl.Source.Name, rows, tbl.Source.Rows, cols, weight)
	return nil
}

// addAssignment records the result of scanning one source under one
// mapping assignment carrying the given probability weight: every matching
// row rowIdxs names, projected through cols, is a (row, values)
// occurrence that accumulates the weight, and each distinct tuple
// accumulates it once (by-table set semantics). rows are the source's
// rows; a tuple keeps the projection of the first row that produced it
// as its values.
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
			t = int32(len(a.table))
			k := string(a.key)
			a.tuples[k] = t
			lo := len(a.vals)
			for _, c := range cols {
				a.vals = append(a.vals, row[c])
			}
			a.table = append(a.table, Tuple{Key: k, Values: a.vals[lo:len(a.vals):len(a.vals)]})
			a.tups = append(a.tups, tupleAcc{})
		}
		tu := &a.tups[t]
		if tu.source != a.sourceSeq {
			tu.source, tu.prob = a.sourceSeq, 0
			a.seen = append(a.seen, t)
		}
		if tu.stamp != a.assignment {
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

// runChunk is the number of run entries a worker's chunk holds.
const runChunk = 2048

// finishSource closes the current source's run and hands out its result
// — zero when it matched no row — with, WithInstances, its instances,
// and resets the scratch for the next source. The part keeps each run as
// a window of a chunk, so a full chunk is left to it and a new one
// started, never grown by copying.
func (a *accumulator) finishSource() (sourceResult, []Instance) {
	a.sourceSeq++
	if len(a.occs) == 0 {
		return sourceResult{}, nil
	}
	if len(a.runIDs)+len(a.seen) > cap(a.runIDs) {
		n := max(runChunk, len(a.seen))
		a.runIDs, a.runProbs = make([]int32, 0, n), make([]float64, 0, n)
	}
	lo := len(a.runIDs)
	for _, t := range a.seen {
		a.runIDs = append(a.runIDs, t)
		a.runProbs = append(a.runProbs, a.tups[t].prob)
	}
	hi := len(a.runIDs)
	res := sourceResult{acc: a, occurrences: len(a.occs), ids: a.runIDs[lo:hi:hi], probs: a.runProbs[lo:hi:hi]}
	var insts []Instance
	if a.detail == WithInstances {
		insts = make([]Instance, len(a.occs))
		for i, o := range a.occs {
			insts[i] = Instance{Source: a.source, Row: o.row, Values: a.table[o.tuple].Values, Prob: o.prob}
		}
	}
	for _, o := range a.occs {
		a.rowOcc[o.row] = 0
	}
	clear(a.extra)
	a.seen, a.occs, a.source = a.seen[:0], a.occs[:0], ""
	return res, insts
}
