package answer

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
	"udi/internal/storage"
)

// PlanCache memoizes, per queried attribute set, the resolved query plan
// of Definition 3.3: for every source, the column rewrites of its
// marginal mapping assignments. Resolving them is the expensive
// per-query work an uncached evaluator repeats on every call — mapping
// each query attribute to its cluster in every possible mediated schema,
// marginalizing every source's p-mapping onto those clusters
// (PMapping.AssignmentsFor), and rewriting the query under every
// assignment. The plan depends only on the attribute *set* of the query
// (not on the SELECT/WHERE split, operators or literals), so one plan
// serves every query shape over the same attributes.
//
// A plan holds no schema probability: each op keeps the ordered
// (schema, assignment probability) terms of its weight, and the scan
// folds them against the queried Pr(Mₗ). What a plan does depend on, it
// records and checks on every use (Engine.plan): the plan as a whole
// was resolved against one sequence of possible schemas, and each
// source's ops against one *schema.Source and its p-mappings, all
// immutable once published. Whatever the query's input no longer
// matches is re-resolved, copy-on-write — after feedback the fed-back
// sources, after a fast add the newcomers, after a rebuild everything —
// so no commit invalidates the cache, engines pass it on, and readers
// pinned to different epochs share it safely.
//
// Plans additionally merge assignments whose rewrite is identical — the
// same attribute→column resolution arising under different possible
// schemas — into one op carrying both weight terms. The accumulator adds
// weights linearly over identical row sets, so the merged scan is
// equivalent to the separate ones (the differential harness pins this
// down to 1e-12).
type PlanCache struct {
	mu    sync.RWMutex
	plans map[string]*queryPlan
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[string]*queryPlan)}
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// Sources reports the per-source entries the cached plans hold: at most
// the number of plans times the sources of the corpus each was last
// used over.
func (c *PlanCache) Sources() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, p := range c.plans {
		n += len(p.bySource)
	}
	return n
}

// Invalidate drops every cached plan.
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	c.plans = make(map[string]*queryPlan)
	c.mu.Unlock()
}

func (c *PlanCache) lookup(key string) *queryPlan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.plans[key]
}

func (c *PlanCache) store(key string, p *queryPlan) {
	c.mu.Lock()
	c.plans[key] = p
	c.mu.Unlock()
}

// queryPlan is the resolved plan of one attribute set.
type queryPlan struct {
	// attrs is the sorted attribute set; every column list aligns with it.
	attrs []string
	// pmed is a p-med-schema the plan was resolved against: any with the
	// same schema sequence is served by it.
	pmed *schema.PMedSchema
	// medIdx[l][i] is the index of attrs[i]'s cluster in the l-th
	// possible schema, nil when that schema does not mediate some
	// attribute.
	medIdx [][]int
	// bySource holds an entry for every source of the corpus the plan
	// was last completed for, with or without ops, in corpus order.
	bySource []*sourceOps
}

// sourceOps is one source's resolved scans, with the source and the
// p-mappings they were resolved from.
type sourceOps struct {
	src *schema.Source
	pms []*pmapping.PMapping
	ops []scanOp
}

// scanOp is one resolved scan of one source: the column of every plan
// attribute, and the (schema, assignment probability) terms of every
// assignment producing exactly this rewrite, in resolution order.
type scanOp struct {
	cols  []int
	terms []weightTerm
}

type weightTerm struct {
	l    int
	prob float64
}

// weight is the op's by-table weight Σ Pr(Mₗ)·Pr(assignment), summed in
// resolution order.
func (op *scanOp) weight(probs []float64) float64 {
	w := 0.0
	for _, t := range op.terms {
		w += probs[t.l] * t.prob
	}
	return w
}

// planKey canonicalizes a query's attribute set into the cache key.
func planKey(q *sqlparse.Query) (key string, attrs []string) {
	attrs = q.Attrs()
	sort.Strings(attrs)
	return strings.Join(attrs, "\x1f"), attrs
}

// current reports whether so was resolved from src and pms.
func (so *sourceOps) current(src *schema.Source, pms []*pmapping.PMapping) bool {
	return so != nil && so.src == src && slices.Equal(so.pms, pms)
}

// complete reports whether the plan holds a current entry for every one
// of srcs, in their order, and nothing else.
func (p *queryPlan) complete(srcs []*schema.Source, maps map[string][]*pmapping.PMapping) bool {
	if p == nil || len(p.bySource) != len(srcs) {
		return false
	}
	for i, src := range srcs {
		if !p.bySource[i].current(src, maps[src.Name]) {
			return false
		}
	}
	return true
}

// reusable returns the plan's entry for the i-th source, src, when it
// was resolved from src and pms, nil otherwise (or on a nil plan). It
// looks at the entry in the same position first, and only when that
// entry is another source's — a source was added or removed ahead of
// src — finds src's by name, through an index of the plan's entries
// built on first need into *byName.
func (p *queryPlan) reusable(i int, src *schema.Source, pms []*pmapping.PMapping, byName *map[string]*sourceOps) *sourceOps {
	if p == nil {
		return nil
	}
	if i < len(p.bySource) && p.bySource[i].src.Name == src.Name {
		if so := p.bySource[i]; so.current(src, pms) {
			return so
		}
		return nil
	}
	if *byName == nil {
		*byName = make(map[string]*sourceOps, len(p.bySource))
		for _, so := range p.bySource {
			(*byName)[so.src.Name] = so
		}
	}
	if so := (*byName)[src.Name]; so.current(src, pms) {
		return so
	}
	return nil
}

// plan returns the plan for q's attribute set under in, completing the
// cached one copy-on-write: a plan resolved against another schema
// sequence is rebuilt whole (plan_cache.misses), and otherwise only the
// sources whose entry is missing or was resolved from another source or
// other p-mappings are resolved again (plan_cache.hits). Either way
// plan_cache.resolved_sources counts the sources resolved.
func (e *Engine) plan(in PMedInput, q *sqlparse.Query) (*queryPlan, error) {
	key, attrs := planKey(q)
	old := e.Plans.lookup(key)
	if old != nil && !old.pmed.SameSequence(in.PMed) {
		old = nil
	}
	srcs := e.corpus.Sources
	if old.complete(srcs, in.Maps) {
		if e.Obs.Enabled() {
			e.Obs.Add("plan_cache.hits", 1)
		}
		return old, nil
	}
	p := &queryPlan{attrs: attrs, pmed: in.PMed, bySource: make([]*sourceOps, len(srcs))}
	if old != nil {
		p.medIdx = old.medIdx
	} else {
		p.medIdx = make([][]int, in.PMed.Len())
		for l, med := range in.PMed.Schemas {
			p.medIdx[l] = attrsMedIdxs(attrs, med)
		}
	}
	resolved := 0
	var byName map[string]*sourceOps
	for i, src := range srcs {
		so := old.reusable(i, src, in.Maps[src.Name], &byName)
		if so == nil {
			var err error
			if so, err = p.resolve(in, src); err != nil {
				return nil, err
			}
			resolved++
		}
		p.bySource[i] = so
	}
	e.Plans.store(key, p)
	if e.Obs.Enabled() {
		if old != nil {
			e.Obs.Add("plan_cache.hits", 1)
		} else {
			e.Obs.Add("plan_cache.misses", 1)
		}
		e.Obs.Add("plan_cache.resolved_sources", int64(resolved))
	}
	return p, nil
}

// resolve resolves one source's scan ops: per schema, the marginal
// mapping assignments; per assignment, the attribute→column rewrite —
// merged across schemas when the rewrite coincides.
func (p *queryPlan) resolve(in PMedInput, src *schema.Source) (*sourceOps, error) {
	pms := in.Maps[src.Name]
	if len(pms) != in.PMed.Len() {
		return nil, fmt.Errorf("answer: source %q has %d p-mappings for %d schemas",
			src.Name, len(pms), in.PMed.Len())
	}
	so := &sourceOps{src: src, pms: pms}
	for l, medIdx := range p.medIdx {
		if medIdx == nil {
			continue // some query attribute is not mediated by this schema
		}
	assignments:
		for _, asgn := range pms[l].AssignmentsFor(medIdx) {
			if asgn.Prob == 0 {
				continue
			}
			cols := make([]int, len(medIdx))
			for i, srcAttr := range asgn.SrcAttrs {
				if srcAttr == "" {
					continue assignments // leaves a query attribute unmapped
				}
				if cols[i] = src.AttrIndex(srcAttr); cols[i] < 0 {
					return nil, fmt.Errorf("answer: storage: source %q has no attribute %q",
						src.Name, srcAttr)
				}
			}
			t := weightTerm{l: l, prob: asgn.Prob}
			if i := slices.IndexFunc(so.ops, func(op scanOp) bool { return slices.Equal(op.cols, cols) }); i >= 0 {
				so.ops[i].terms = append(so.ops[i].terms, t)
			} else {
				so.ops = append(so.ops, scanOp{cols: cols, terms: []weightTerm{t}})
			}
		}
	}
	return so, nil
}

// answerWithPlan executes a resolved plan for one concrete query: the
// WHERE predicates compile once, and per source and op the projection
// and predicate columns come straight from the op's columns, the table
// scan pushes equality predicates down to its postings indexes, and the
// op's weight folds its terms against probs, the queried Pr(Mₗ). Scans
// poll ctx so an expired deadline stops the query mid-plan.
func (e *Engine) answerWithPlan(ctx context.Context, plan *queryPlan, probs []float64, q *sqlparse.Query, d Detail) (*ResultSet, error) {
	pos := func(a string) int { i, _ := slices.BinarySearch(plan.attrs, a); return i }
	at := make([]int, 0, len(q.Select)+len(q.Where))
	for _, a := range q.Select {
		at = append(at, pos(a))
	}
	for _, p := range q.Where {
		at = append(at, pos(p.Attr))
	}
	where := storage.Compile(q.Where)
	return e.runPerSource(ctx, d, func(ctx context.Context, i int, src *schema.Source, acc *accumulator) error {
		ops := plan.bySource[i].ops
		if len(ops) == 0 {
			return nil
		}
		tbl := e.tables[src.Name]
		cols := slices.Grow(acc.cols[:0], len(at))[:len(at)]
		acc.cols = cols
		for _, op := range ops {
			for j, k := range at {
				cols[j] = op.cols[k]
			}
			if err := acc.scan(ctx, tbl, where, cols[len(q.Select):], cols[:len(q.Select)], op.weight(probs)); err != nil {
				return err
			}
		}
		return nil
	})
}

// attrsMedIdxs resolves every attribute to the index of its cluster in
// med, in attrs order; nil if any attribute is not mediated.
func attrsMedIdxs(attrs []string, med *schema.MediatedSchema) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = slices.IndexFunc(med.Attrs, func(c schema.MediatedAttr) bool { return c.Contains(a) })
		if out[i] < 0 {
			return nil
		}
	}
	return out
}
