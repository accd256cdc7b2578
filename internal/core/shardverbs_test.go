package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"udi/internal/answer"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// diffTwins requires two production systems to hold deeply identical
// artifacts and to answer every frequent-attribute query with `==`
// probabilities.
func diffTwins(t *testing.T, tag string, a, b *System) {
	t.Helper()
	if !reflect.DeepEqual(a.Med.PMed, b.Med.PMed) {
		t.Fatalf("%s: p-med-schemas differ", tag)
	}
	if !reflect.DeepEqual(a.Maps, b.Maps) {
		t.Fatalf("%s: p-mappings differ", tag)
	}
	if !reflect.DeepEqual(a.Target, b.Target) || !reflect.DeepEqual(a.Snapshot().ConsMaps(), b.Snapshot().ConsMaps()) {
		t.Fatalf("%s: consolidated artifacts differ", tag)
	}
	for _, attr := range a.Corpus.FrequentAttrs(0.10) {
		q := sqlparse.MustParse("SELECT " + attr + " FROM t")
		ra, err := a.QueryParsed(q)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		rb, err := b.QueryParsed(q)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !reflect.DeepEqual(ra.Ranked, rb.Ranked) || !reflect.DeepEqual(ra.Instances, rb.Instances) {
			t.Fatalf("%s: answers to %q differ", tag, q)
		}
	}
}

// coordinate is the coordinator's half of a fast-path change over sys:
// the corpus loses drop and gains add, the newcomers' p-mappings are
// built under med through MapUnder, and the served target is kept.
func coordinate(t *testing.T, sys *System, add []*schema.Source, drop []string, med *mediate.Result) ShardChange {
	t.Helper()
	gone := map[string]bool{}
	for _, name := range drop {
		gone[name] = true
	}
	ch := ShardChange{Domain: sys.Corpus.Domain, Add: add, Med: med, Target: sys.Target}
	for _, src := range append(slices.Clip(sys.Corpus.Sources), add...) {
		if !gone[src.Name] {
			ch.Sources = append(ch.Sources, src.Name)
		}
	}
	if len(add) > 0 {
		maps, err := MapUnder(mustCorpus(t, sys.Corpus.Domain, add), sys.Cfg, med)
		if err != nil {
			t.Fatal(err)
		}
		ch.Maps = maps
	}
	return ch
}

// TestShardVerbsMatchSingleCoreFastPath is the differential between a
// single core deciding its own structural change and a shard installing
// the coordinator's: over random splits of random corpora,
// AddSources(batch) on one system and the coordinator's half —
// PlanMediation over the raw similarity, the newcomers' p-mappings built
// apart through MapUnder, then ShardRestructure — on its twin must
// agree on whether the plan is fast and, when it is, leave deeply
// identical Maps, ConsMaps and Target, `==` schema probabilities and `==`
// answers. Then the same for removing a random source.
func TestShardVerbsMatchSingleCoreFastPath(t *testing.T) {
	nCorpora, compared := 60, 0
	if testing.Short() {
		nCorpora = 15
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		corpus := randomCorpus(rng)
		split := 2 + rng.Intn(len(corpus.Sources)-2)
		cfg := Config{Parallelism: 4, Obs: obs.Disabled}
		single, err := Setup(mustCorpus(t, corpus.Domain, corpus.Sources[:split]), cfg)
		if err != nil {
			continue // the prefix has no frequent attribute
		}
		twin, err := Setup(mustCorpus(t, corpus.Domain, corpus.Sources[:split]), cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := corpus.Sources[split:]

		med, fast, err := PlanMediation(twin.Med.PMed, corpus, cfg.Mediate)
		gotFast, gotErr := single.AddSources(batch)
		if (err != nil) != (gotErr != nil) || gotFast != (err == nil && fast) {
			t.Fatalf("seed %d: add: plan (fast=%v, err=%v), AddSources (fast=%v, err=%v)", seed, fast, err, gotFast, gotErr)
		}
		if !gotFast {
			continue
		}
		if err := twin.ShardRestructure(coordinate(t, twin, batch, nil, med)); err != nil {
			t.Fatalf("seed %d: adopt: %v", seed, err)
		}
		diffTwins(t, fmt.Sprintf("seed %d: after add", seed), single, twin)

		victim := corpus.Sources[rng.Intn(len(corpus.Sources))].Name
		var rest []*schema.Source
		for _, src := range corpus.Sources {
			if src.Name != victim {
				rest = append(rest, src)
			}
		}
		med, fast, err = PlanMediation(twin.Med.PMed, mustCorpus(t, corpus.Domain, rest), cfg.Mediate)
		gotFast, gotErr = single.RemoveSource(victim)
		if (err != nil) != (gotErr != nil) || gotFast != (err == nil && fast) {
			t.Fatalf("seed %d: remove: plan (fast=%v, err=%v), RemoveSource (fast=%v, err=%v)", seed, fast, err, gotFast, gotErr)
		}
		if !gotFast {
			continue
		}
		if err := twin.ShardRestructure(coordinate(t, twin, nil, []string{victim}, med)); err != nil {
			t.Fatalf("seed %d: drop: %v", seed, err)
		}
		diffTwins(t, fmt.Sprintf("seed %d: after remove", seed), single, twin)
		compared++
	}
	if compared < nCorpora/4 {
		t.Fatalf("only %d of %d corpora reached the fast remove comparison", compared, nCorpora)
	}
}

// TestStructuralVerbsAllOrNothing: a structural verb that cannot be
// planned — an unknown name, an added source without p-mappings,
// p-mappings of the wrong width or for an unlisted source, a missing
// mediation or target — publishes nothing and leaves the epoch, the
// snapshot pointer and the identity of every writer field untouched.
func TestStructuralVerbsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sys, err := Setup(randomCorpus(rng), Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := schema.MustNewSource("new-good", []string{"alpha", "bravo"}, [][]string{{"v1", "v2"}})
	change := func(edit func(*ShardChange)) func() error {
		return func() error {
			ch := coordinate(t, sys, []*schema.Source{good}, nil, sys.Med)
			edit(&ch)
			return sys.ShardRestructure(ch)
		}
	}

	verbs := map[string]func() error{
		"RemoveSource unknown":    func() error { _, err := sys.RemoveSource("nope"); return err },
		"RemoveSource empty name": func() error { _, err := sys.RemoveSource(""); return err },
		"ShardRestructure unknown name": change(func(ch *ShardChange) {
			ch.Sources = append(ch.Sources, "nope")
		}),
		"ShardRestructure added without p-mappings": change(func(ch *ShardChange) { ch.Maps = nil }),
		"ShardRestructure p-mappings of the wrong width": change(func(ch *ShardChange) {
			ch.Maps = map[string][]*pmapping.PMapping{good.Name: ch.Maps[good.Name][:0]}
		}),
		"ShardRestructure p-mappings for an unlisted source": change(func(ch *ShardChange) {
			ch.Maps["unlisted"] = ch.Maps[good.Name]
		}),
		"ShardRestructure rows for an unlisted source": change(func(ch *ShardChange) {
			ch.Sources = ch.Sources[:len(ch.Sources)-1]
			delete(ch.Maps, good.Name)
		}),
		"ShardRestructure nil med":    change(func(ch *ShardChange) { ch.Med = nil }),
		"ShardRestructure nil target": change(func(ch *ShardChange) { ch.Target = nil }),
	}
	for name, verb := range verbs {
		epoch, snap := sys.Epoch(), sys.Snapshot()
		corpus, med, engine := sys.Corpus, sys.Med, sys.Engine()
		maps := reflect.ValueOf(sys.Maps).Pointer()
		if err := verb(); err == nil {
			t.Fatalf("%s: succeeded", name)
		}
		if got := sys.Epoch(); got != epoch || sys.Snapshot() != snap {
			t.Errorf("%s: failed verb published: epoch %d -> %d", name, epoch, got)
		}
		if sys.Corpus != corpus || sys.Med != med || sys.Engine() != engine ||
			reflect.ValueOf(sys.Maps).Pointer() != maps {
			t.Errorf("%s: failed verb changed the writer state", name)
		}
	}
	if sys.Committing() {
		t.Error("committing flag left set")
	}
	// The system still commits: the good source goes in.
	if err := change(func(*ShardChange) {})(); err != nil {
		t.Fatalf("clean adopt after failures: %v", err)
	}
	if !sys.holds("new-good") {
		t.Fatal("clean adopt did not install the good source")
	}
}

// TestShardRestructureRefusesForeignSequence: held p-mappings are indexed
// by the served schema sequence, so a pushed mediation listing the same
// clusterings in another order is refused while any held source keeps
// its own p-mappings — nothing published, the served mediation and the
// answers unchanged — and accepted by a change that drops every source,
// after which the shard serves newcomers' p-mappings built for it.
func TestShardRestructureRefusesForeignSequence(t *testing.T) {
	c, _ := peopleSystem(t)
	sys, err := Setup(c.Corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pmed := sys.Med.PMed
	if pmed.Len() < 2 {
		t.Fatalf("the People corpus has %d possible schemas; a reorder needs two", pmed.Len())
	}
	n := pmed.Len()
	schemas, probs := make([]*schema.MediatedSchema, n), make([]float64, n)
	for i := range schemas {
		schemas[i], probs[i] = pmed.Schemas[n-1-i], pmed.Probs[n-1-i]
	}
	reversed, err := schema.NewPMedSchema(schemas, probs)
	if err != nil {
		t.Fatal(err)
	}
	foreign := &mediate.Result{PMed: reversed}

	q := sqlparse.MustParse("SELECT name, phone FROM People")
	answers := func() *answer.ResultSet {
		t.Helper()
		rs, err := sys.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	before, epoch, med := answers(), sys.Epoch(), sys.Med
	held := sys.Corpus.Sources
	names := make([]string, len(held))
	for i, src := range held {
		names[i] = src.Name
	}
	late := schema.MustNewSource("late", held[0].Attrs, held[0].Rows)
	for what, verb := range map[string]func() error{
		"mediation only":      func() error { return sys.ShardRestructure(coordinate(t, sys, nil, nil, foreign)) },
		"drop all but one":    func() error { return sys.ShardRestructure(coordinate(t, sys, nil, names[1:], foreign)) },
		"add beside the held": func() error { return sys.ShardRestructure(coordinate(t, sys, []*schema.Source{late}, nil, foreign)) },
	} {
		if err := verb(); err == nil {
			t.Fatalf("%s: a reordered schema sequence was accepted over kept sources", what)
		}
		if sys.Epoch() != epoch || sys.Med != med {
			t.Fatalf("%s: the refused push published or installed something", what)
		}
		if after := answers(); !reflect.DeepEqual(before.Ranked, after.Ranked) {
			t.Fatalf("%s: the refused push moved the answers", what)
		}
	}

	if err := sys.ShardRestructure(coordinate(t, sys, nil, names, foreign)); err != nil {
		t.Fatalf("dropping every source under a reordered sequence: %v", err)
	}
	if err := sys.ShardRestructure(coordinate(t, sys, held[:1], nil, foreign)); err != nil {
		t.Fatalf("adopting into the emptied shard under a reordered sequence: %v", err)
	}
	if sys.Med.PMed != reversed || len(sys.Maps[held[0].Name]) != n {
		t.Fatal("the emptied shard does not serve the reordered sequence with p-mappings built for it")
	}
}
