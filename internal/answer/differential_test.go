package answer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
	"udi/internal/storage"
)

// Differential harness for the query-serving fast path. The plan cache,
// merged scan ops, pushdown indexes and bounded top-k all re-implement
// semantics the naive Definition 3.3 path already has; this file pins
// them together: over randomized corpora and randomized queries, the
// fast path must return byte-identical values and probabilities within
// probTol of the naive path, including the by-table disjunction
// p = 1 − Π(1 − p_i) and the by-tuple recombination.

const probTol = 1e-12

// diffCorpus builds a random corpus shaped for differential testing:
// attribute names with plural variants (so the mediated schema has both
// certain and uncertain clusterings) and cell values drawn from a small
// pool (so equality and LIKE predicates select nontrivial subsets).
func diffCorpus(rng *rand.Rand) *schema.Corpus {
	bases := []string{"alpha", "bravo", "carrot", "delta", "echo", "forest"}
	nBases := 2 + rng.Intn(len(bases)-1)
	nSources := 4 + rng.Intn(6)
	var sources []*schema.Source
	for i := 0; i < nSources; i++ {
		var attrs []string
		used := map[string]bool{}
		for j := 0; j < nBases; j++ {
			if rng.Float64() < 0.6 {
				v := bases[j]
				if rng.Intn(2) == 1 {
					v += "s"
				}
				if !used[v] {
					used[v] = true
					attrs = append(attrs, v)
				}
			}
		}
		if len(attrs) == 0 {
			attrs = []string{bases[0]}
		}
		nRows := 2 + rng.Intn(10)
		rows := make([][]string, nRows)
		for r := range rows {
			row := make([]string, len(attrs))
			for c := range row {
				row[c] = fmt.Sprintf("v%d", rng.Intn(5))
			}
			rows[r] = row
		}
		sources = append(sources, schema.MustNewSource(fmt.Sprintf("s%02d", i), attrs, rows))
	}
	c, err := schema.NewCorpus("diff", sources)
	if err != nil {
		panic(err)
	}
	return c
}

// diffSetup mirrors core.Setup's mediate+pmapping stages without
// importing core (which imports this package): a p-med-schema over the
// corpus and one p-mapping per (source, possible schema).
func diffSetup(t *testing.T, corpus *schema.Corpus) (PMedInput, []string) {
	t.Helper()
	med, err := mediate.Generate(corpus, mediate.Config{})
	if err != nil {
		t.Fatalf("mediate: %v", err)
	}
	in := PMedInput{PMed: med.PMed, Maps: make(map[string][]*pmapping.PMapping, len(corpus.Sources))}
	for _, src := range corpus.Sources {
		pms := make([]*pmapping.PMapping, 0, med.PMed.Len())
		for _, m := range med.PMed.Schemas {
			pm, err := pmapping.Build(src, m, pmapping.Config{})
			if err != nil {
				t.Fatalf("pmapping %s: %v", src.Name, err)
			}
			pms = append(pms, pm)
		}
		in.Maps[src.Name] = pms
	}
	return in, med.FrequentAttrs
}

// diffQuery generates a random select-project query over the frequent
// attributes, mixing predicate operators so both the indexed (equality)
// and verified-only (range, LIKE, !=) paths run.
func diffQuery(rng *rand.Rand, attrs []string) *sqlparse.Query {
	sel := attrs[rng.Intn(len(attrs))]
	qs := "SELECT " + sel + " FROM t"
	if rng.Float64() < 0.75 {
		preds := 1 + rng.Intn(2)
		for i := 0; i < preds; i++ {
			attr := attrs[rng.Intn(len(attrs))]
			lit := fmt.Sprintf("v%d", rng.Intn(5))
			var pred string
			switch rng.Intn(5) {
			case 0, 1: // weighted toward equality, the indexed operator
				pred = fmt.Sprintf("%s = '%s'", attr, lit)
			case 2:
				pred = fmt.Sprintf("%s != '%s'", attr, lit)
			case 3:
				pred = fmt.Sprintf("%s >= '%s'", attr, lit)
			default:
				pred = fmt.Sprintf("%s LIKE 'v%%'", attr)
			}
			if i == 0 {
				qs += " WHERE " + pred
			} else {
				qs += " AND " + pred
			}
		}
	}
	return sqlparse.MustParse(qs)
}

// naiveAnswerPMed is the oracle of this harness: Definition 3.3 evaluated
// straight off the p-mappings, with no plan, no cache, no merging of
// identical rewrites and none of the engine's accumulator. Each possible
// schema's query clusters are resolved once, then every source re-derives
// every mapping assignment, scans once per assignment and keeps its
// occurrences and tuple probabilities in plain maps.
func naiveAnswerPMed(e *Engine, in PMedInput, q *sqlparse.Query) (*ResultSet, error) {
	type schemaPlan struct {
		medIdxs map[string]int
		idxList []int
	}
	plans := make([]*schemaPlan, in.PMed.Len())
	for l, med := range in.PMed.Schemas {
		if medIdxs, ok := queryMedIdxs(q, med); ok {
			pl := &schemaPlan{medIdxs: medIdxs}
			for _, j := range medIdxs {
				pl.idxList = append(pl.idxList, j)
			}
			plans[l] = pl
		}
	}
	type occKey struct {
		row   int
		tuple string
	}
	part := &ResultSet{}
	for _, src := range e.corpus.Sources {
		pms := in.Maps[src.Name]
		if len(pms) != in.PMed.Len() {
			return nil, fmt.Errorf("answer: source %q has %d p-mappings for %d schemas",
				src.Name, len(pms), in.PMed.Len())
		}
		occs := map[occKey]*Instance{}
		probs := map[string]float64{}
		for l := range in.PMed.Schemas {
			pl := plans[l]
			if pl == nil {
				continue // some query attribute is not mediated by this schema
			}
			for _, asgn := range pms[l].AssignmentsFor(pl.idxList) {
				if asgn.Prob == 0 {
					continue
				}
				weight := in.PMed.Probs[l] * asgn.Prob
				medToSrc := map[int]string{}
				for i, a := range asgn.SrcAttrs {
					if a != "" {
						medToSrc[pl.idxList[i]] = a
					}
				}
				project := make([]string, len(q.Select))
				preds := make([]storage.Pred, len(q.Where))
				mapped := true
				for i, a := range q.Select {
					project[i], mapped = medToSrc[pl.medIdxs[a]]
					if !mapped {
						break
					}
				}
				for i, p := range q.Where {
					if !mapped {
						break
					}
					var attr string
					attr, mapped = medToSrc[pl.medIdxs[p.Attr]]
					preds[i] = storage.Pred{Attr: attr, Op: p.Op, Literal: p.Literal}
				}
				if !mapped {
					continue // the assignment leaves a query attribute unmapped
				}
				idxs, rows, err := e.tables[src.Name].SelectIdx(project, preds)
				if err != nil {
					return nil, err
				}
				seen := map[string]bool{}
				for i, r := range idxs {
					tk := tupleKey(rows[i])
					if inst, ok := occs[occKey{r, tk}]; ok {
						inst.Prob += weight
					} else {
						occs[occKey{r, tk}] = &Instance{Source: src.Name, Row: r, Values: rows[i], Prob: weight}
					}
					if !seen[tk] {
						seen[tk] = true
						probs[tk] += weight
					}
				}
			}
		}
		if len(occs) == 0 {
			continue
		}
		withRuns(part, sourceProbs{source: src.Name, probs: probs, occurrences: len(occs)})
		for _, inst := range occs {
			part.Instances = append(part.Instances, *inst)
		}
	}
	sort.Slice(part.Instances, func(i, j int) bool {
		a, b := part.Instances[i], part.Instances[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return tupleKey(a.Values) < tupleKey(b.Values)
	})
	return Rank(part), nil
}

// diffCompare asserts two result sets agree: identical instance
// occurrences and occurrence counts, ranked values/order, probabilities
// within probTol.
func diffCompare(t *testing.T, label string, want, got *ResultSet) {
	t.Helper()
	if got.Occurrences() != len(want.Instances) || want.Occurrences() != len(want.Instances) {
		t.Fatalf("%s: %d occurrences counted, want %d (the oracle counts %d)",
			label, got.Occurrences(), len(want.Instances), want.Occurrences())
	}
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("%s: %d instances, want %d", label, len(got.Instances), len(want.Instances))
	}
	for i, w := range want.Instances {
		g := got.Instances[i]
		if g.Source != w.Source || g.Row != w.Row || tupleKey(g.Values) != tupleKey(w.Values) {
			t.Fatalf("%s: instance %d: got %s/%d/%v, want %s/%d/%v",
				label, i, g.Source, g.Row, g.Values, w.Source, w.Row, w.Values)
		}
		if math.Abs(g.Prob-w.Prob) > probTol {
			t.Fatalf("%s: instance %d prob %.17g, want %.17g", label, i, g.Prob, w.Prob)
		}
	}
	if len(got.Ranked) != len(want.Ranked) {
		t.Fatalf("%s: %d ranked answers, want %d", label, len(got.Ranked), len(want.Ranked))
	}
	for i, w := range want.Ranked {
		g := got.Ranked[i]
		if tupleKey(g.Values) != tupleKey(w.Values) {
			t.Fatalf("%s: rank %d: got %v, want %v", label, i, g.Values, w.Values)
		}
		if math.Abs(g.Prob-w.Prob) > probTol {
			t.Fatalf("%s: rank %d prob %.17g, want %.17g", label, i, g.Prob, w.Prob)
		}
	}
	if len(got.PerSource) != len(want.PerSource) {
		t.Fatalf("%s: %d per-source entries, want %d", label, len(got.PerSource), len(want.PerSource))
	}
	gotRuns := runMaps(got)
	for i, w := range runMaps(want) {
		g := gotRuns[i]
		if g.source != w.source || len(g.probs) != len(w.probs) || g.occurrences != w.occurrences {
			t.Fatalf("%s: per-source %d: got %s (%d tuples, %d occurrences), want %s (%d tuples, %d occurrences)",
				label, i, g.source, len(g.probs), g.occurrences, w.source, len(w.probs), w.occurrences)
		}
		for tk, wp := range w.probs {
			if math.Abs(g.probs[tk]-wp) > probTol {
				t.Fatalf("%s: per-source %d tuple %q prob %.17g, want %.17g",
					label, i, tk, g.probs[tk], wp)
			}
		}
	}
}

// TestDifferentialFastPath is the harness: ≥ 200 randomized
// (corpus, query) trials comparing the naive path (no plan cache, no
// indexes) against the fast path cold and warm, plus the bounded top-k
// rankings against their full-sort equivalents.
func TestDifferentialFastPath(t *testing.T) {
	seeds, queriesPer := 60, 4 // 240 trials
	if testing.Short() {
		seeds = 15 // 60 trials
	}
	reg := obs.NewRegistry()
	trials := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		corpus := diffCorpus(rng)
		in, attrs := diffSetup(t, corpus)

		naive := NewEngine(corpus)
		for _, tbl := range naive.Tables() {
			tbl.NoIndex = true // full scans only
		}

		fast := NewEngine(corpus)
		fast.SetObs(reg)
		for _, tbl := range fast.tables {
			tbl.IndexThreshold = 1 // force pushdown even on tiny sources
		}

		for qi := 0; qi < queriesPer; qi++ {
			q := diffQuery(rng, attrs)
			label := fmt.Sprintf("seed %d query %q", seed, q)
			want, err := naiveAnswerPMed(naive, in, q)
			if err != nil {
				t.Fatalf("%s: naive: %v", label, err)
			}
			cold, err := fast.AnswerPMed(in, q)
			if err != nil {
				t.Fatalf("%s: fast cold: %v", label, err)
			}
			diffCompare(t, label+" [cold]", want, cold)
			warm, err := fast.AnswerPMed(in, q)
			if err != nil {
				t.Fatalf("%s: fast warm: %v", label, err)
			}
			diffCompare(t, label+" [warm]", want, warm)
			// The by-table scan counts what the instance scan lists and
			// ranks to the same bits.
			part, err := fast.ScanPMed(context.Background(), in, q, CountOnly)
			if err != nil {
				t.Fatalf("%s: fast counts: %v", label, err)
			}
			counted := Rank(part)
			if counted.Instances != nil {
				t.Fatalf("%s: a CountOnly scan listed %d instances", label, len(counted.Instances))
			}
			diffCompare(t, label+" [counts]", want, &ResultSet{Instances: warm.Instances, Ranked: counted.Ranked, Tuples: counted.Tuples, PerSource: counted.PerSource})
			for i, a := range counted.Ranked {
				if a.Prob != warm.Ranked[i].Prob {
					t.Fatalf("%s: counted rank %d prob %v, instance path %v", label, i, a.Prob, warm.Ranked[i].Prob)
				}
			}

			// Bounded top-k must be the exact prefix of the full ranking
			// ((prob desc, key asc) is a total order, so prefixes are
			// unique).
			full := want.ByTupleRanking()
			k := 1 + rng.Intn(len(full)+1)
			topk := warm.ByTupleRankingTopK(k)
			if k > len(full) {
				k = len(full)
			}
			if len(topk) != k {
				t.Fatalf("%s: top-%d returned %d answers", label, k, len(topk))
			}
			for i := 0; i < k; i++ {
				if tupleKey(topk[i].Values) != tupleKey(full[i].Values) {
					t.Fatalf("%s: top-%d rank %d: got %v, want %v", label, k, i, topk[i].Values, full[i].Values)
				}
				if math.Abs(topk[i].Prob-full[i].Prob) > probTol {
					t.Fatalf("%s: top-%d rank %d prob %.17g, want %.17g", label, k, i, topk[i].Prob, full[i].Prob)
				}
			}
			for i, a := range warm.TopK(k) {
				if tupleKey(a.Values) != tupleKey(warm.Ranked[i].Values) || a.Prob != warm.Ranked[i].Prob {
					t.Fatalf("%s: TopK(%d)[%d] != Ranked[%d]", label, k, i, i)
				}
			}
			trials++
		}
	}
	if min := 200; !testing.Short() && trials < min {
		t.Fatalf("ran %d trials, want >= %d", trials, min)
	}
	// The comparison is vacuous if the fast path never actually cached or
	// probed: every warm query must hit, and the equality-heavy workload
	// must have pushed predicates down at least once.
	snap := reg.Snapshot()
	if snap.Counters["plan_cache.hits"] == 0 || snap.Counters["plan_cache.misses"] == 0 {
		t.Fatalf("plan cache never exercised: %+v", snap.Counters)
	}
	if snap.Counters["index.probes"] == 0 {
		t.Fatalf("indexes never probed: %+v", snap.Counters)
	}
}
