package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// The differential harness: a sharded System at every supported shard
// count must answer every query bit-identically to the single-core
// oracle, through arbitrary interleavings of feedback, source additions
// and removals. "Bit-identically" is literal — probabilities are compared
// with ==, not a tolerance — because the merge revisits IEEE disjunction
// factors in the oracle's order (see MergeResultSets).

var diffApproaches = []core.Approach{core.UDI, core.Consolidated}

// randomShardCorpus mirrors the core package's property-test corpus
// generator: a small vocabulary with plural variants and random
// column/value assignments.
func randomShardCorpus(rng *rand.Rand) *schema.Corpus {
	bases := []string{"alpha", "bravo", "carrot", "delta", "echo", "forest"}
	nBases := 2 + rng.Intn(len(bases)-1)
	nSources := 4 + rng.Intn(6)
	var sources []*schema.Source
	for i := 0; i < nSources; i++ {
		sources = append(sources, randomSource(rng, fmt.Sprintf("s%02d", i), bases[:nBases]))
	}
	c, err := schema.NewCorpus("random", sources)
	if err != nil {
		panic(err)
	}
	return c
}

func randomSource(rng *rand.Rand, name string, bases []string) *schema.Source {
	var attrs []string
	used := map[string]bool{}
	for _, b := range bases {
		if rng.Float64() < 0.6 {
			v := b
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
	nRows := 1 + rng.Intn(6)
	rows := make([][]string, nRows)
	for r := range rows {
		row := make([]string, len(attrs))
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(8))
		}
		rows[r] = row
	}
	return schema.MustNewSource(name, attrs, rows)
}

// trialQueries builds a few random queries over the oracle's current
// frequent attributes.
func trialQueries(rng *rand.Rand, corpus *schema.Corpus) []*sqlparse.Query {
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		return nil
	}
	var qs []*sqlparse.Query
	for i := 0; i < 3; i++ {
		sel := attrs[rng.Intn(len(attrs))]
		q := "SELECT " + sel + " FROM t"
		switch rng.Intn(3) {
		case 1:
			q += fmt.Sprintf(" WHERE %s = 'v%d'", attrs[rng.Intn(len(attrs))], rng.Intn(8))
		case 2:
			q += fmt.Sprintf(" WHERE %s != 'v%d'", attrs[rng.Intn(len(attrs))], rng.Intn(8))
		}
		qs = append(qs, sqlparse.MustParse(q))
	}
	return qs
}

// compareSystems runs the full battery: schema state, every approach on
// every query, and canonicalized explain provenance.
func compareSystems(t *testing.T, tag string, oracle *core.System, sh *System, qs []*sqlparse.Query) {
	t.Helper()
	ctx := context.Background()
	sn := oracle.Snapshot()
	v := sh.View()

	if got, want := v.NumSources(), len(sn.Corpus.Sources); got != want {
		t.Fatalf("%s: sharded serves %d sources, oracle %d", tag, got, want)
	}
	opm, spm := sn.Med.PMed, v.PMed()
	if len(opm.Schemas) != len(spm.Schemas) {
		t.Fatalf("%s: %d vs %d possible schemas", tag, len(spm.Schemas), len(opm.Schemas))
	}
	for i := range opm.Schemas {
		if opm.Schemas[i].Key() != spm.Schemas[i].Key() {
			t.Fatalf("%s: schema %d differs: %q vs %q", tag, i, spm.Schemas[i].Key(), opm.Schemas[i].Key())
		}
		if opm.Probs[i] != spm.Probs[i] {
			t.Fatalf("%s: schema %d prob %v vs oracle %v", tag, i, spm.Probs[i], opm.Probs[i])
		}
	}
	if sn.Target.Key() != v.Target().Key() {
		t.Fatalf("%s: consolidated target differs", tag)
	}

	for qi, q := range qs {
		for _, a := range diffApproaches {
			ors, oerr := sn.RunCtx(ctx, a, q)
			srs, serr := v.RunCtx(ctx, a, q)
			if (oerr != nil) != (serr != nil) {
				t.Fatalf("%s: q%d %s: oracle err %v, sharded err %v", tag, qi, a, oerr, serr)
			}
			if oerr != nil {
				continue
			}
			qtag := fmt.Sprintf("%s: q%d %s", tag, qi, a)
			compareResultSets(t, qtag, ors, srs)
			// The instance path ranks the same bits and lists exactly the
			// occurrences the by-table path counts.
			ois, oerr := sn.RunInstancesCtx(ctx, a, q)
			sis, serr := v.RunInstancesCtx(ctx, a, q)
			if oerr != nil || serr != nil {
				t.Fatalf("%s: instance path: oracle err %v, sharded err %v", qtag, oerr, serr)
			}
			if ors.Instances != nil || srs.Instances != nil {
				t.Fatalf("%s: the by-table path listed instances", qtag)
			}
			compareResultSets(t, qtag+" instances", ois, sis)
			compareResultSets(t, qtag+" counts vs instances", ors, &answer.ResultSet{Ranked: ois.Ranked, PerSource: ois.PerSource})
		}
		// Provenance of the top UDI answer, compared canonically: the
		// engine's sort is unstable among fully tied contributions, so both
		// sides are re-sorted by a total key before comparison.
		ors, oerr := sn.RunCtx(ctx, core.UDI, q)
		if oerr != nil || len(ors.Ranked) == 0 {
			continue
		}
		values := ors.Ranked[0].Values
		oc, oerr := sn.ExplainCtx(ctx, q, values)
		sc, serr := v.ExplainCtx(ctx, q, values)
		if (oerr != nil) != (serr != nil) {
			t.Fatalf("%s: q%d explain: oracle err %v, sharded err %v", tag, qi, oerr, serr)
		}
		if oerr != nil {
			continue
		}
		compareContributions(t, fmt.Sprintf("%s: q%d explain", tag, qi), oc, sc)
	}
}

func compareResultSets(t *testing.T, tag string, want, got *answer.ResultSet) {
	t.Helper()
	if len(want.Ranked) != len(got.Ranked) {
		t.Fatalf("%s: %d ranked answers, oracle %d", tag, len(got.Ranked), len(want.Ranked))
	}
	for i := range want.Ranked {
		w, g := want.Ranked[i], got.Ranked[i]
		if strings.Join(w.Values, "\x1f") != strings.Join(g.Values, "\x1f") {
			t.Fatalf("%s: rank %d values %v, oracle %v", tag, i, g.Values, w.Values)
		}
		if w.Prob != g.Prob {
			t.Fatalf("%s: rank %d (%v) prob %v, oracle %v (diff %g)",
				tag, i, w.Values, g.Prob, w.Prob, g.Prob-w.Prob)
		}
	}
	if len(want.PerSource) != len(got.PerSource) {
		t.Fatalf("%s: %d contributing sources, oracle %d", tag, len(got.PerSource), len(want.PerSource))
	}
	for i := range want.PerSource {
		w, g := want.PerSource[i], got.PerSource[i]
		if w.Source != g.Source || w.Occurrences != g.Occurrences {
			t.Fatalf("%s: source %d is %s with %d occurrences, oracle %s with %d", tag, i, g.Source, g.Occurrences, w.Source, w.Occurrences)
		}
	}
	for _, rs := range []*answer.ResultSet{want, got} {
		if rs.Instances != nil && rs.Occurrences() != len(rs.Instances) {
			t.Fatalf("%s: %d occurrences counted, %d instances listed", tag, rs.Occurrences(), len(rs.Instances))
		}
	}
	if len(want.Instances) != len(got.Instances) {
		t.Fatalf("%s: %d instances, oracle %d", tag, len(got.Instances), len(want.Instances))
	}
	for i := range want.Instances {
		w, g := want.Instances[i], got.Instances[i]
		if w.Source != g.Source || w.Row != g.Row || w.Prob != g.Prob ||
			strings.Join(w.Values, "\x1f") != strings.Join(g.Values, "\x1f") {
			t.Fatalf("%s: instance %d = %+v, oracle %+v", tag, i, g, w)
		}
	}
}

func contributionKey(c answer.Contribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x|%s|%d|", c.Mass, c.Source, c.SchemaIdx)
	idxs := make([]int, 0, len(c.MedToSrc))
	for k := range c.MedToSrc {
		idxs = append(idxs, k)
	}
	sort.Ints(idxs)
	for _, k := range idxs {
		fmt.Fprintf(&b, "%d=%s;", k, c.MedToSrc[k])
	}
	fmt.Fprintf(&b, "|%v", c.Rows)
	return b.String()
}

func compareContributions(t *testing.T, tag string, want, got []answer.Contribution) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d contributions, oracle %d", tag, len(got), len(want))
	}
	wk := make([]string, len(want))
	gk := make([]string, len(got))
	for i := range want {
		wk[i] = contributionKey(want[i])
		gk[i] = contributionKey(got[i])
	}
	sort.Strings(wk)
	sort.Strings(gk)
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: contribution %d = %s, oracle %s", tag, i, gk[i], wk[i])
		}
	}
}

// mutateBoth applies one random mutation to oracle and sharded system
// identically and checks that both take the same fast/rebuild path and
// agree on success. nextID numbers freshly added sources.
func mutateBoth(t *testing.T, rng *rand.Rand, oracle *core.System, sh *System, nextID *int) {
	t.Helper()
	switch rng.Intn(4) {
	case 0, 1: // feedback on a random existing correspondence
		srcs := oracle.Corpus.Sources
		src := srcs[rng.Intn(len(srcs))]
		pms := oracle.Maps[src.Name]
		l := rng.Intn(len(pms))
		for _, g := range pms[l].Groups {
			if len(g.Corrs) == 0 {
				continue
			}
			c := g.Corrs[rng.Intn(len(g.Corrs))]
			fb := core.Feedback{Source: src.Name, SrcAttr: c.SrcAttr,
				SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: rng.Float64() < 0.5}
			oerr := oracle.SubmitFeedback(fb)
			serr := sh.SubmitFeedback(fb)
			if (oerr != nil) != (serr != nil) {
				t.Fatalf("feedback %+v: oracle err %v, sharded err %v", fb, oerr, serr)
			}
			return
		}
	case 2: // add a fresh random source
		src := randomSource(rng, fmt.Sprintf("x%02d", *nextID), []string{"alpha", "bravo", "carrot", "delta"})
		*nextID++
		ofast, oerr := oracle.AddSources([]*schema.Source{src})
		sfast, serr := sh.AddSources([]*schema.Source{src})
		if (oerr != nil) != (serr != nil) {
			t.Fatalf("add %s: oracle err %v, sharded err %v", src.Name, oerr, serr)
		}
		if oerr == nil && ofast != sfast {
			t.Fatalf("add %s: oracle fast=%v, sharded fast=%v", src.Name, ofast, sfast)
		}
	case 3: // remove a random source (never the last)
		if len(oracle.Corpus.Sources) <= 1 {
			return
		}
		name := oracle.Corpus.Sources[rng.Intn(len(oracle.Corpus.Sources))].Name
		ofast, oerr := oracle.RemoveSource(name)
		sfast, serr := sh.RemoveSource(name)
		if (oerr != nil) != (serr != nil) {
			t.Fatalf("remove %s: oracle err %v, sharded err %v", name, oerr, serr)
		}
		if oerr == nil && ofast != sfast {
			t.Fatalf("remove %s: oracle fast=%v, sharded fast=%v", name, ofast, sfast)
		}
	}
}

// TestDifferentialScatterGather is the headline contract: ≥200 randomized
// trials, cycling shard counts {1,2,4,8}, each trial interleaving queries
// with feedback, source additions and removals, every answer compared
// bit-for-bit against the single-core oracle.
func TestDifferentialScatterGather(t *testing.T) {
	trials := 200
	muts := 4
	if testing.Short() {
		trials = 40
		muts = 3
	}
	counts := []int{1, 2, 4, 8}
	for trial := 0; trial < trials; trial++ {
		shards := counts[trial%len(counts)]
		t.Run(fmt.Sprintf("trial%03d_shards%d", trial, shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
			corpus := randomShardCorpus(rng)
			oracle, err := core.Setup(corpus, core.Config{})
			if err != nil {
				t.Fatalf("oracle setup: %v", err)
			}
			sh, err := New(corpus, core.Config{}, Options{Shards: shards})
			if err != nil {
				t.Fatalf("sharded setup: %v", err)
			}
			if got := sh.NumShards(); got != shards {
				t.Fatalf("NumShards = %d, want %d", got, shards)
			}
			nextID := 0
			compareSystems(t, "initial", oracle, sh, trialQueries(rng, oracle.Corpus))
			for m := 0; m < muts; m++ {
				mutateBoth(t, rng, oracle, sh, &nextID)
				compareSystems(t, fmt.Sprintf("after mutation %d", m),
					oracle, sh, trialQueries(rng, oracle.Corpus))
			}
		})
	}
}
