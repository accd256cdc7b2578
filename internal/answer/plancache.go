package answer

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// PlanCache memoizes, per (p-med-schema, queried attribute set), the fully
// resolved query plan of Definition 3.3: for every source, the flat list
// of (attribute → column) rewrites with their accumulated by-table
// probability weights. Resolving a plan is the expensive per-query work
// an uncached evaluator repeats on every call — mapping each query
// attribute to its cluster in every possible mediated schema,
// marginalizing every source's p-mapping onto those clusters
// (PMapping.AssignmentsFor), and rewriting the query under every
// assignment. The plan depends only on
// the attribute *set* of the query (not on the SELECT/WHERE split,
// operators or literals), so one plan serves every query shape over the
// same attributes.
//
// Plans additionally merge assignments whose rewrite is identical — the
// same attribute→column resolution arising under different possible
// schemas — by summing their weights. The accumulator adds weights
// linearly over identical row sets, so the merged scan is equivalent to
// the separate ones (the differential harness pins this down to 1e-12).
//
// Invalidation contract: a cache is valid for exactly one (PMed, Maps)
// identity — looking up with a different input flushes it — and must be
// explicitly invalidated (Invalidate / Engine.InvalidatePlans) when the
// p-mappings are mutated in place, which feedback conditioning does.
// Corpus changes build a new Engine and therefore a fresh cache.
type PlanCache struct {
	mu     sync.RWMutex
	pmed   *schema.PMedSchema
	mapsID uintptr
	plans  map[string]*queryPlan
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

// Invalidate drops every cached plan.
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	c.plans = make(map[string]*queryPlan)
	c.pmed = nil
	c.mapsID = 0
	c.mu.Unlock()
}

func (c *PlanCache) lookup(in PMedInput, key string) (*queryPlan, bool) {
	id := reflect.ValueOf(in.Maps).Pointer()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.pmed != in.PMed || c.mapsID != id {
		return nil, false
	}
	p, ok := c.plans[key]
	return p, ok
}

func (c *PlanCache) store(in PMedInput, key string, p *queryPlan) {
	id := reflect.ValueOf(in.Maps).Pointer()
	c.mu.Lock()
	if c.pmed != in.PMed || c.mapsID != id {
		c.plans = make(map[string]*queryPlan)
		c.pmed = in.PMed
		c.mapsID = id
	}
	c.plans[key] = p
	c.mu.Unlock()
}

// scanOp is one resolved scan of one source: every query attribute mapped
// to its column index, with the total probability weight of the
// (schema, mapping) pairs that produce exactly this rewrite.
type scanOp struct {
	attrCol map[string]int
	weight  float64
}

// queryPlan holds the resolved scan ops per source. Sources with no
// contributing assignment are absent.
type queryPlan struct {
	bySource map[string][]scanOp
}

// planKey canonicalizes a query's attribute set into the cache key.
func planKey(q *sqlparse.Query) (key string, attrs []string) {
	attrs = q.Attrs()
	sort.Strings(attrs)
	return strings.Join(attrs, "\x1f"), attrs
}

// schemaPlan resolves one possible schema's view of a query attribute
// set: each attribute's cluster index plus the flat index list.
type schemaPlan struct {
	medIdxs map[string]int
	idxList []int
}

// buildSchemaPlans resolves the attribute set against every possible
// schema; a nil entry means some attribute is not mediated by that
// schema. Depends only on (PMed, attrs) — sources play no part — so one
// resolution serves every source of a plan.
func buildSchemaPlans(in PMedInput, attrs []string) []*schemaPlan {
	plans := make([]*schemaPlan, in.PMed.Len())
	for l, med := range in.PMed.Schemas {
		if medIdxs, ok := attrsMedIdxs(attrs, med); ok {
			pl := &schemaPlan{medIdxs: medIdxs}
			for _, j := range medIdxs {
				pl.idxList = append(pl.idxList, j)
			}
			plans[l] = pl
		}
	}
	return plans
}

// buildSourceOps resolves one source's scan ops: per schema, the
// marginal mapping assignments; per assignment, the attribute→column
// rewrite — merged across schemas when the rewrite coincides.
func (e *Engine) buildSourceOps(in PMedInput, attrs []string, plans []*schemaPlan, src *schema.Source) ([]scanOp, error) {
	pms := in.Maps[src.Name]
	if len(pms) != in.PMed.Len() {
		return nil, fmt.Errorf("answer: source %q has %d p-mappings for %d schemas",
			src.Name, len(pms), in.PMed.Len())
	}
	var ops []scanOp
	sig := make(map[string]int)
	for l := range in.PMed.Schemas {
		pl := plans[l]
		if pl == nil {
			continue // some query attribute is not mediated by this schema
		}
		weight := in.PMed.Probs[l]
		for _, asgn := range pms[l].AssignmentsFor(pl.idxList) {
			if asgn.Prob == 0 {
				continue
			}
			attrCol := make(map[string]int, len(attrs))
			var sb strings.Builder
			ok := true
			for _, a := range attrs {
				srcAttr, mapped := asgn.MedToSrc[pl.medIdxs[a]]
				if !mapped {
					ok = false // assignment leaves a query attribute unmapped
					break
				}
				col := src.AttrIndex(srcAttr)
				if col < 0 {
					return nil, fmt.Errorf("answer: storage: source %q has no attribute %q",
						src.Name, srcAttr)
				}
				attrCol[a] = col
				sb.WriteString(strconv.Itoa(col))
				sb.WriteByte(',')
			}
			if !ok {
				continue
			}
			k := sb.String()
			if i, dup := sig[k]; dup {
				ops[i].weight += weight * asgn.Prob
			} else {
				sig[k] = len(ops)
				ops = append(ops, scanOp{attrCol: attrCol, weight: weight * asgn.Prob})
			}
		}
	}
	return ops, nil
}

// buildPlan resolves the full Definition 3.3 plan for one attribute set:
// per possible schema, the query clusters; per source and schema, the
// marginal mapping assignments; per assignment, the attribute→column
// rewrite — merged across schemas when the rewrite coincides.
func (e *Engine) buildPlan(in PMedInput, attrs []string) (*queryPlan, error) {
	plans := buildSchemaPlans(in, attrs)
	plan := &queryPlan{bySource: make(map[string][]scanOp, len(e.corpus.Sources))}
	for _, src := range e.corpus.Sources {
		ops, err := e.buildSourceOps(in, attrs, plans, src)
		if err != nil {
			return nil, err
		}
		if len(ops) > 0 {
			plan.bySource[src.Name] = ops
		}
	}
	return plan, nil
}

// splitPlanKey inverts planKey back into the sorted attribute list.
func splitPlanKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// RetargetPlans moves the plan cache onto the post-feedback (PMed, Maps)
// identity: for every cached plan, only the dirty sources' scan ops are
// re-resolved against the new Maps; every other source's ops — the bulk
// of a plan over a large corpus — carry over untouched, which is sound
// because feedback conditions only the dirty sources' p-mappings and a
// source's scan ops depend on nothing but (PMed, its own p-mappings, the
// attribute set). Retargeted plans are fresh objects: concurrent readers
// executing the old plans keep a consistent pre-feedback view.
//
// The cache must currently be keyed to (in.PMed, oldMaps) — the identity
// the feedback started from. Anything else (empty cache, an identity
// already flushed by a concurrent path) falls back to a wholesale flush,
// never a partial retarget of unknown state. A dirty source the engine
// does not serve, or a resolution error, drops just that plan.
func (e *Engine) RetargetPlans(oldMaps map[string][]*pmapping.PMapping, in PMedInput, dirty []string) {
	c := e.Plans
	oldID := reflect.ValueOf(oldMaps).Pointer()
	newID := reflect.ValueOf(in.Maps).Pointer()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pmed != in.PMed || c.mapsID != oldID {
		c.plans = make(map[string]*queryPlan)
		c.pmed = nil
		c.mapsID = 0
		if e.Obs.Enabled() {
			e.Obs.Add("plan_cache.invalidations", 1)
		}
		return
	}
	byName := make(map[string]*schema.Source, len(dirty))
	for _, src := range e.corpus.Sources {
		byName[src.Name] = src
	}
	retargeted := 0
	for key, p := range c.plans {
		attrs := splitPlanKey(key)
		plans := buildSchemaPlans(in, attrs)
		np := &queryPlan{bySource: make(map[string][]scanOp, len(p.bySource))}
		for name, ops := range p.bySource {
			np.bySource[name] = ops
		}
		ok := true
		for _, name := range dirty {
			src := byName[name]
			if src == nil {
				ok = false
				break
			}
			ops, err := e.buildSourceOps(in, attrs, plans, src)
			if err != nil {
				ok = false
				break
			}
			if len(ops) == 0 {
				delete(np.bySource, name)
			} else {
				np.bySource[name] = ops
			}
		}
		if !ok {
			delete(c.plans, key)
			continue
		}
		c.plans[key] = np
		retargeted++
	}
	c.pmed = in.PMed
	c.mapsID = newID
	if e.Obs.Enabled() {
		e.Obs.Add("plan_cache.retargets", 1)
		e.Obs.Add("plan_cache.retargeted_plans", int64(retargeted))
	}
}

// answerWithPlan executes a resolved plan for one concrete query: per
// source and op, the projection and predicate columns come straight from
// the plan's attribute→column maps, and the table scan pushes equality
// predicates down to its postings indexes. Scans poll ctx so an expired
// deadline stops the query mid-plan.
func (e *Engine) answerWithPlan(ctx context.Context, plan *queryPlan, q *sqlparse.Query, d Detail) (*ResultSet, error) {
	return e.runPerSource(ctx, d, func(ctx context.Context, src *schema.Source, acc *accumulator) error {
		ops := plan.bySource[src.Name]
		if len(ops) == 0 {
			return nil
		}
		tbl := e.tables[src.Name]
		for _, op := range ops {
			projIdx := make([]int, len(q.Select))
			for i, a := range q.Select {
				projIdx[i] = op.attrCol[a]
			}
			predIdx := make([]int, len(q.Where))
			for i, p := range q.Where {
				predIdx[i] = op.attrCol[p.Attr]
			}
			idxs, rows, err := tbl.SelectIdxColsCtx(ctx, projIdx, q.Where, predIdx)
			if err != nil {
				return err
			}
			acc.addAssignment(src.Name, idxs, rows, op.weight)
		}
		return nil
	})
}

// attrsMedIdxs resolves every attribute to the index of its cluster in
// med; ok is false if any attribute is not mediated.
func attrsMedIdxs(attrs []string, med *schema.MediatedSchema) (map[string]int, bool) {
	out := make(map[string]int, len(attrs))
	for _, a := range attrs {
		found := false
		for j, cluster := range med.Attrs {
			if cluster.Contains(a) {
				out[a] = j
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
