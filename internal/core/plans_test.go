package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"udi/internal/answer"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// carQueries parses the Car domain's ten evaluation queries.
func carQueries(spec *datagen.Domain) []*sqlparse.Query {
	qs := make([]*sqlparse.Query, len(spec.Queries))
	for i, s := range spec.Queries {
		qs[i] = sqlparse.MustParse(s)
	}
	return qs
}

// coldAnswers answers every query over sn's state through a fresh
// engine, one that has never cached a plan.
func coldAnswers(t *testing.T, sn *Snapshot, qs []*sqlparse.Query) []*answer.ResultSet {
	t.Helper()
	e := answer.NewEngine(sn.Corpus)
	in := answer.PMedInput{PMed: sn.Med.PMed, Maps: sn.Maps}
	out := make([]*answer.ResultSet, len(qs))
	for i, q := range qs {
		rs, err := e.ScanPMed(context.Background(), in, q, answer.CountOnly)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = answer.Rank(rs)
	}
	return out
}

// sameAnswers fails unless got ranks the same tuples as want with
// ==-identical probabilities and counts the same occurrences.
func sameAnswers(t *testing.T, tag string, want, got *answer.ResultSet) {
	t.Helper()
	if len(got.Ranked) != len(want.Ranked) || got.Occurrences() != want.Occurrences() {
		t.Fatalf("%s: %d answers and %d occurrences, cold %d and %d",
			tag, len(got.Ranked), got.Occurrences(), len(want.Ranked), want.Occurrences())
	}
	for i, w := range want.Ranked {
		if g := got.Ranked[i]; g.Prob != w.Prob || !slices.Equal(g.Values, w.Values) {
			t.Fatalf("%s: answer %d is %v %.17g, cold %v %.17g", tag, i, g.Values, g.Prob, w.Values, w.Prob)
		}
	}
}

// requireWarmMatchesCold answers every query through sys's warm plan
// cache and requires the cold answers, bit for bit.
func requireWarmMatchesCold(t *testing.T, tag string, sys *System, qs []*sqlparse.Query) {
	t.Helper()
	sn := sys.Snapshot()
	cold := coldAnswers(t, sn, qs)
	for i, q := range qs {
		warm, err := sn.RunCtx(context.Background(), UDI, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("%s: q%d", tag, i), cold[i], warm)
	}
}

// randomFeedback submits feedback on a random correspondence of a random
// source until the system accepts one, and returns that source.
func randomFeedback(rng *rand.Rand, sys *System) (string, error) {
	var err error
	for try := 0; try < 100; try++ {
		src := sys.Corpus.Sources[rng.Intn(len(sys.Corpus.Sources))]
		pms := sys.Maps[src.Name]
		l := rng.Intn(len(pms))
		for _, g := range pms[l].Groups {
			if len(g.Corrs) == 0 {
				continue
			}
			c := g.Corrs[rng.Intn(len(g.Corrs))]
			if err = sys.SubmitFeedback(Feedback{Source: src.Name, SrcAttr: c.SrcAttr,
				SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: rng.Float64() < 0.5}); err == nil {
				return src.Name, nil
			}
			break
		}
	}
	return "", fmt.Errorf("no feedback accepted in 100 tries, last error %v", err)
}

// mustFeedback is randomFeedback on the test goroutine.
func mustFeedback(t *testing.T, rng *rand.Rand, sys *System) {
	t.Helper()
	if _, err := randomFeedback(rng, sys); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPlansSurviveSourceChurn keeps every plan warm through the
// structural changes a plan keyed on source names alone would get
// wrong: a source removed and re-added under the same name with its
// columns permuted, a twin that shares its p-mappings with another
// source, and 100 distinct sources added and removed again. After every
// commit the warm answers equal a fresh system's over the same state
// bit for bit, and the cached per-source entries stay bounded by the
// attribute sets times the sources served.
func TestWarmPlansSurviveSourceChurn(t *testing.T) {
	spec := datagen.Car(102)
	spec.NumSources = 180
	gen := datagen.MustGenerate(spec)
	base, extra := gen.Corpus.Sources[:80], gen.Corpus.Sources[80:]
	reg := obs.NewRegistry()
	sys, err := Setup(mustCorpus(t, gen.Corpus.Domain, base), Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	qs := carQueries(spec)
	// check compares every query, then bounds the entries: each plan has
	// just been used over the served corpus.
	check := func(tag string) {
		t.Helper()
		requireWarmMatchesCold(t, tag, sys, qs)
		plans := sys.Engine().Plans
		if bound := plans.Len() * len(sys.Corpus.Sources); plans.Sources() > bound {
			t.Fatalf("%s: %d cached per-source entries, bound %d", tag, plans.Sources(), bound)
		}
	}
	check("setup")

	// The same name, the same attributes in another order: every column
	// index of the old source's ops is wrong for the new one. No query
	// runs in between, so the plans still hold the old source's entry.
	victim := sys.Corpus.Sources[5]
	if _, err := sys.RemoveSource(victim.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddSources([]*schema.Source{reversed(victim.Name, victim)}); err != nil {
		t.Fatal(err)
	}
	check("re-added with permuted columns")

	// A twin: another name over the same attribute set, in another column
	// order. The schema dedup hands it a clone of the original's
	// p-mappings, so ops resolved from the p-mapping alone would read the
	// original's columns.
	orig := sys.Corpus.Sources[3]
	hits := reg.Counter("setup.pmap_dedup.hits").Value()
	if _, err := sys.AddSources([]*schema.Source{reversed(orig.Name+"-twin", orig)}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("setup.pmap_dedup.hits").Value() - hits; got != int64(sys.Med.PMed.Len()) {
		t.Fatalf("the twin took %d dedup'd p-mappings, want %d", got, sys.Med.PMed.Len())
	}
	check("twin added")

	for i := 0; i < len(extra); i += 10 {
		if _, err := sys.AddSources(extra[i : i+10]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("added %d", i+10))
	}
	for i, src := range extra {
		if _, err := sys.RemoveSource(src.Name); err != nil {
			t.Fatal(err)
		}
		if tag := fmt.Sprintf("removed %d", i+1); (i+1)%10 == 0 {
			check(tag)
		} else {
			requireWarmMatchesCold(t, tag, sys, []*sqlparse.Query{qs[i%len(qs)]})
		}
	}
	if got, want := sys.Engine().Plans.Sources(), sys.Engine().Plans.Len()*len(sys.Corpus.Sources); got != want {
		t.Fatalf("after the churn the plans hold %d per-source entries, want %d", got, want)
	}
}

// reversed is src under name with its columns in reverse order.
func reversed(name string, src *schema.Source) *schema.Source {
	attrs := slices.Clone(src.Attrs)
	slices.Reverse(attrs)
	rows := make([][]string, len(src.Rows))
	for i, row := range src.Rows {
		rows[i] = slices.Clone(row)
		slices.Reverse(rows[i])
	}
	return schema.MustNewSource(name, attrs, rows)
}

// TestWarmPlansAcrossMixedHistory drives one history of feedback, fast
// adds and removes, and one add that forces a rebuild, querying through
// the warm plan cache after every commit: each answer equals a fresh
// system's over the same state bit for bit, and the first query after a
// feedback or fast commit is a plan cache hit that re-resolves only the
// sources the commit changed.
func TestWarmPlansAcrossMixedHistory(t *testing.T) {
	spec := datagen.Car(101)
	spec.NumSources = 128
	gen := datagen.MustGenerate(spec)
	base, held := gen.Corpus.Sources[:120], gen.Corpus.Sources[120:]
	reg := obs.NewRegistry()
	sys, err := Setup(mustCorpus(t, gen.Corpus.Domain, base), Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	qs := carQueries(spec)
	q := qs[0]
	requireWarmMatchesCold(t, "setup", sys, qs)
	rng := rand.New(rand.NewSource(5))

	// firstQueryHits runs q once and requires a hit that resolved at most
	// changed sources.
	firstQueryHits := func(tag string, changed int) {
		t.Helper()
		before := reg.Snapshot().Counters
		if _, err := sys.Snapshot().RunCtx(context.Background(), UDI, q); err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot().Counters
		if after["plan_cache.hits"] != before["plan_cache.hits"]+1 || after["plan_cache.misses"] != before["plan_cache.misses"] {
			t.Fatalf("%s: the next query missed the plan cache (hits %d -> %d, misses %d -> %d)", tag,
				before["plan_cache.hits"], after["plan_cache.hits"], before["plan_cache.misses"], after["plan_cache.misses"])
		}
		if n := after["plan_cache.resolved_sources"] - before["plan_cache.resolved_sources"]; n > int64(changed) {
			t.Fatalf("%s: the next query resolved %d sources, the commit changed %d", tag, n, changed)
		}
	}

	for step := 0; step < 12; step++ {
		tag := fmt.Sprintf("step %d", step)
		switch step % 4 {
		case 0, 1:
			mustFeedback(t, rng, sys)
			firstQueryHits(tag+" feedback", 1)
		case 2:
			add := held[:2]
			held = held[2:]
			fast, err := sys.AddSources(add)
			if err != nil {
				t.Fatal(err)
			}
			if !fast {
				t.Fatalf("%s: adding %d Car sources rebuilt", tag, len(add))
			}
			firstQueryHits(tag+" fast add", len(add))
		case 3:
			name := sys.Corpus.Sources[rng.Intn(len(sys.Corpus.Sources))].Name
			fast, err := sys.RemoveSource(name)
			if err != nil {
				t.Fatal(err)
			}
			if fast {
				firstQueryHits(tag+" fast remove", 0)
			}
		}
		requireWarmMatchesCold(t, tag, sys, qs)
	}

	// A batch of sources that all carry a new attribute makes it frequent,
	// so the mediation changes and the add rebuilds every p-mapping.
	var novel []*schema.Source
	for i := 0; i < len(sys.Corpus.Sources)/8; i++ {
		src := sys.Corpus.Sources[i]
		rows := make([][]string, len(src.Rows))
		for r, row := range src.Rows {
			rows[r] = append(slices.Clone(row), fmt.Sprintf("z%d", r))
		}
		novel = append(novel, schema.MustNewSource(fmt.Sprintf("novel-%d", i), append(slices.Clone(src.Attrs), "zulu"), rows))
	}
	if fast, err := sys.AddSources(novel); err != nil || fast {
		t.Fatalf("the novel-attribute batch: fast=%v err=%v, want a rebuild", fast, err)
	}
	requireWarmMatchesCold(t, "after the rebuild", sys, qs)
	mustFeedback(t, rng, sys)
	firstQueryHits("feedback after the rebuild", 1)
	requireWarmMatchesCold(t, "feedback after the rebuild", sys, qs)
}

// TestPinnedEpochPlanSoak pins readers to the epochs on either side of a
// feedback commit and of a fast add — three epochs whose engines share
// one plan cache — and has them alternate between the epochs while a
// writer keeps committing feedback. Each epoch's answers must stay its
// own cold answers, bit for bit, whatever the other epochs' readers
// leave in the shared cache. Run under -race by `make soak`.
func TestPinnedEpochPlanSoak(t *testing.T) {
	spec := datagen.Car(102)
	spec.NumSources = 124
	gen := datagen.MustGenerate(spec)
	sys, err := Setup(mustCorpus(t, gen.Corpus.Domain, gen.Corpus.Sources[:120]), Config{Parallelism: 2, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	qs := carQueries(spec)
	rng := rand.New(rand.NewSource(11))
	epochs := []*Snapshot{sys.Snapshot()}
	mustFeedback(t, rng, sys)
	epochs = append(epochs, sys.Snapshot())
	if fast, err := sys.AddSources(gen.Corpus.Sources[120:]); err != nil || !fast {
		t.Fatalf("add: fast=%v err=%v, want the fast path", fast, err)
	}
	epochs = append(epochs, sys.Snapshot())
	want := make([][]*answer.ResultSet, len(epochs))
	for i, sn := range epochs {
		want[i] = coldAnswers(t, sn, qs)
	}

	const readers, rounds = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*len(epochs); i++ {
				e, qi := (r+i)%len(epochs), (r+i/len(epochs))%len(qs)
				got, err := epochs[e].RunCtx(context.Background(), UDI, qs[qi])
				if err != nil {
					errs <- err
					return
				}
				w := want[e][qi]
				if len(got.Ranked) != len(w.Ranked) || got.Occurrences() != w.Occurrences() {
					errs <- fmt.Errorf("epoch %d q%d: %d answers, its oracle %d", epochs[e].Epoch, qi, len(got.Ranked), len(w.Ranked))
					return
				}
				for k := range w.Ranked {
					if got.Ranked[k].Prob != w.Ranked[k].Prob || !slices.Equal(got.Ranked[k].Values, w.Ranked[k].Values) {
						errs <- fmt.Errorf("epoch %d q%d: answer %d differs from its oracle", epochs[e].Epoch, qi, k)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(13))
		for i := 0; i < 6; i++ {
			if _, err := randomFeedback(wrng, sys); err != nil {
				errs <- err
				return
			}
			if _, err := sys.Snapshot().RunCtx(context.Background(), UDI, qs[i%len(qs)]); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTablesOutliveEngines pins that a structural commit hands every
// source it keeps to the new engine with its table — and so with the
// equality indexes that table built — instead of rebuilding them: after
// a one-source fast add on the Car corpus, the next round of the ten
// queries builds indexes on the newcomer's table only.
func TestTablesOutliveEngines(t *testing.T) {
	spec := datagen.Car(102)
	spec.NumSources = 818
	gen := datagen.MustGenerate(spec)
	reg := obs.NewRegistry()
	sys, err := Setup(gen.Corpus.Prefix(817), Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	qs := carQueries(spec)
	builds := reg.Counter("index.builds")
	round := func() int64 {
		t.Helper()
		before := builds.Value()
		for _, q := range qs {
			if _, err := sys.Snapshot().RunCtx(context.Background(), UDI, q); err != nil {
				t.Fatal(err)
			}
		}
		return builds.Value() - before
	}
	first := round()
	if first == 0 {
		t.Fatal("the first round built no index")
	}
	if warm := round(); warm != 0 {
		t.Fatalf("a warm round built %d indexes", warm)
	}
	old := sys.Engine().Tables()
	newcomer := gen.Corpus.Sources[817]
	if fast, err := sys.AddSources([]*schema.Source{newcomer}); err != nil || !fast {
		t.Fatalf("add: fast=%v err=%v", fast, err)
	}
	for name, tbl := range sys.Engine().Tables() {
		if name != newcomer.Name && tbl != old[name] {
			t.Fatalf("source %s got a new table", name)
		}
	}
	after := round()
	if after > int64(len(newcomer.Attrs)) {
		t.Fatalf("the round after a one-source fast add built %d indexes; the newcomer has %d columns",
			after, len(newcomer.Attrs))
	}
	t.Logf("index builds: %d in the first round, %d after a one-source fast add", first, after)
}
