package answer

import (
	"math"
	"slices"
	"testing"

	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestPlanCacheHitMiss pins the cache lifecycle on the Figure 1 fixture:
// first query misses and populates, repeat hits, a different attribute
// set misses again, and both paths return Example 2.1's probabilities.
func TestPlanCacheHitMiss(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	reg := obs.NewRegistry()
	e.SetObs(reg)

	q := sqlparse.MustParse("SELECT name, phone FROM t")
	rs, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.1: hPhone with prob 0.34+0.16=0.5... the fixture's known
	// marginals: each phone answer combines schema and mapping weights.
	if len(rs.Instances) == 0 {
		t.Fatal("no answers")
	}
	if got := reg.Snapshot().Counters; got["plan_cache.misses"] != 1 || got["plan_cache.hits"] != 0 {
		t.Fatalf("after first query: %+v", got)
	}
	if e.Plans.Len() != 1 {
		t.Fatalf("cached %d plans, want 1", e.Plans.Len())
	}

	rs2, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters; got["plan_cache.hits"] != 1 {
		t.Fatalf("after repeat query: %+v", got)
	}
	for i := range rs.Ranked {
		if rs.Ranked[i].Prob != rs2.Ranked[i].Prob {
			t.Fatalf("hit changed answer %d: %v vs %v", i, rs.Ranked[i], rs2.Ranked[i])
		}
	}

	// Same attribute set, different query shape: still one plan.
	if _, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT name FROM t WHERE phone != 'x'")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters; got["plan_cache.hits"] != 2 {
		t.Fatalf("shape change should share the plan: %+v", got)
	}

	// New attribute set: a second plan.
	if _, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT name FROM t")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters; got["plan_cache.misses"] != 2 {
		t.Fatalf("new attribute set should miss: %+v", got)
	}
	if e.Plans.Len() != 2 {
		t.Fatalf("cached %d plans, want 2", e.Plans.Len())
	}
}

// TestPlanCacheInvalidate pins InvalidatePlans, the one recovery from a
// p-mapping mutated in place: after it the next query misses, rebuilds,
// and reflects the new probabilities.
func TestPlanCacheInvalidate(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	reg := obs.NewRegistry()
	e.SetObs(reg)

	q := sqlparse.MustParse("SELECT phone FROM t")
	before, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate in place the way feedback conditioning does: confirm the
	// straight phone mapping in schema 0 (prob 0.8 → 1).
	pm := in.Maps["S1"][0]
	var corr *pmapping.Corr
	for gi := range pm.Groups {
		for ci := range pm.Groups[gi].Corrs {
			if c := &pm.Groups[gi].Corrs[ci]; c.SrcAttr == "hPhone" && c.Weight == 0.8 {
				corr = c
			}
		}
	}
	if corr == nil {
		t.Fatal("fixture changed: no hPhone correspondence at weight 0.8")
	}
	if err := pm.Condition(corr.SrcAttr, corr.MedIdx, true, pmapping.Config{}); err != nil {
		t.Fatal(err)
	}
	e.InvalidatePlans()
	if got := reg.Snapshot().Counters; got["plan_cache.invalidations"] != 1 {
		t.Fatalf("invalidation not recorded: %+v", got)
	}
	if e.Plans.Len() != 0 {
		t.Fatalf("cache holds %d plans after invalidation", e.Plans.Len())
	}

	after, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters; got["plan_cache.misses"] != 2 {
		t.Fatalf("post-invalidation query should miss: %+v", got)
	}
	changed := false
	for i := range after.Ranked {
		if i < len(before.Ranked) && math.Abs(after.Ranked[i].Prob-before.Ranked[i].Prob) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("conditioning did not change any answer probability — stale plan?")
	}
}

// TestPlanCacheResolvesOnlyWhatChanged pins what a cached plan keys on.
// New schema probabilities over the same schemas reuse every resolved
// source. Structurally equal but freshly built inputs reuse the plan
// yet re-resolve the source, because its p-mappings are other objects.
// Another schema sequence rebuilds the plan whole. Each answer is
// bit-identical to a fresh engine's over the same input, and the cache
// keeps one plan throughout.
func TestPlanCacheResolvesOnlyWhatChanged(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	reg := obs.NewRegistry()
	e.SetObs(reg)
	q := sqlparse.MustParse("SELECT name, phone FROM t")

	_, fresh := figure1Fixture()
	reweighted, err := schema.NewPMedSchema(in.PMed.Schemas, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := schema.NewPMedSchema([]*schema.MediatedSchema{in.PMed.Schemas[1], in.PMed.Schemas[0]}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name                   string
		in                     PMedInput
		hits, misses, resolved int64
	}{
		{"cold", in, 0, 1, 1},
		{"reweighted", PMedInput{PMed: reweighted, Maps: in.Maps}, 1, 1, 1},
		{"fresh maps", fresh, 2, 1, 2},
		{"reordered", PMedInput{PMed: reordered, Maps: map[string][]*pmapping.PMapping{"S1": {fresh.Maps["S1"][1], fresh.Maps["S1"][0]}}}, 2, 2, 3},
	}
	for _, st := range steps {
		got, err := e.AnswerPMed(st.in, q)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := NewEngine(corpus).AnswerPMed(st.in, q)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if len(got.Ranked) != len(want.Ranked) || len(got.Ranked) == 0 {
			t.Fatalf("%s: %d answers, fresh engine %d", st.name, len(got.Ranked), len(want.Ranked))
		}
		for i := range want.Ranked {
			if tupleKey(got.Ranked[i].Values) != tupleKey(want.Ranked[i].Values) || got.Ranked[i].Prob != want.Ranked[i].Prob {
				t.Fatalf("%s: answer %d is %v, fresh engine %v", st.name, i, got.Ranked[i], want.Ranked[i])
			}
		}
		c := reg.Snapshot().Counters
		if c["plan_cache.hits"] != st.hits || c["plan_cache.misses"] != st.misses || c["plan_cache.resolved_sources"] != st.resolved {
			t.Fatalf("%s: counters %+v, want hits %d misses %d resolved %d", st.name, c, st.hits, st.misses, st.resolved)
		}
		if e.Plans.Len() != 1 {
			t.Fatalf("%s: cached %d plans, want 1", st.name, e.Plans.Len())
		}
	}
}

// TestPlanCacheKeysOnTheSource hands a warm cache to an engine over a
// corpus whose source kept its name and its p-mappings but reversed its
// columns: the source's ops must be resolved again, not read at the old
// column positions.
func TestPlanCacheKeysOnTheSource(t *testing.T) {
	corpus, in := figure1Fixture()
	q := sqlparse.MustParse("SELECT name, phone FROM t WHERE address != 'x'")
	warm := NewEngine(corpus)
	if _, err := warm.AnswerPMed(in, q); err != nil {
		t.Fatal(err)
	}
	s1 := corpus.Sources[0]
	attrs, row := slices.Clone(s1.Attrs), slices.Clone(s1.Rows[0])
	slices.Reverse(attrs)
	slices.Reverse(row)
	permuted, err := schema.NewCorpus("people", []*schema.Source{schema.MustNewSource(s1.Name, attrs, [][]string{row})})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(permuted)
	e.Plans = warm.Plans
	got, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(permuted).AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ranked) != len(want.Ranked) || len(want.Ranked) == 0 {
		t.Fatalf("%d answers, fresh engine %d", len(got.Ranked), len(want.Ranked))
	}
	for i := range want.Ranked {
		if tupleKey(got.Ranked[i].Values) != tupleKey(want.Ranked[i].Values) || got.Ranked[i].Prob != want.Ranked[i].Prob {
			t.Fatalf("answer %d is %v, fresh engine %v", i, got.Ranked[i], want.Ranked[i])
		}
	}
}
