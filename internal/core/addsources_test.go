package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// scaleQuery picks a frequent attribute the SQL parser accepts (no
// spaces) and builds a SELECT over it.
func scaleQuery(t *testing.T, c interface{ FrequentAttrs(float64) []string }) *sqlparse.Query {
	t.Helper()
	for _, a := range c.FrequentAttrs(0.10) {
		if !strings.Contains(a, " ") {
			return sqlparse.MustParse("SELECT " + a + " FROM t")
		}
	}
	t.Fatal("no parseable frequent attribute")
	return nil
}

// TestAddSourcesMatchesSequential: growing a system with one AddSources
// batch must land on the same mediated schema, per-source p-mappings,
// consolidated target and consolidated p-mappings as growing it with the
// equivalent sequence of one-element batches, and both must match the
// reference's one-shot setup over the final corpus. The scale corpus
// keeps the mediated schema stable, so every add — batched or not —
// rides the fast path.
func TestAddSourcesMatchesSequential(t *testing.T) {
	corpus := datagen.ScaleCorpus(120, 5)
	split := 80
	initial := mustCorpus(t, corpus.Domain, corpus.Sources[:split])
	rest := corpus.Sources[split:]

	batchSys, err := Setup(initial, Config{Parallelism: 4, Obs: obs.Disabled})
	if err != nil {
		t.Fatalf("batch setup: %v", err)
	}
	seqSys, err := Setup(initial, Config{Parallelism: 4, Obs: obs.Disabled})
	if err != nil {
		t.Fatalf("seq setup: %v", err)
	}

	fast, err := batchSys.AddSources(rest)
	if err != nil {
		t.Fatalf("AddSources: %v", err)
	}
	if !fast {
		t.Fatal("batch add rebuilt; scale corpus should keep the schema set stable")
	}
	for _, src := range rest {
		fast, err := seqSys.AddSources([]*schema.Source{src})
		if err != nil {
			t.Fatalf("AddSources(%s): %v", src.Name, err)
		}
		if !fast {
			t.Fatalf("AddSources(%s) rebuilt; scale corpus should stay fast", src.Name)
		}
	}

	if !reflect.DeepEqual(seqSys.Med.PMed, batchSys.Med.PMed) {
		t.Fatal("p-med-schemas differ between batch and sequential adds")
	}
	if !reflect.DeepEqual(seqSys.Maps, batchSys.Maps) {
		t.Fatal("p-mappings differ between batch and sequential adds")
	}
	if !reflect.DeepEqual(seqSys.Target, batchSys.Target) {
		t.Fatal("consolidated schemas differ between batch and sequential adds")
	}
	if !reflect.DeepEqual(seqSys.Snapshot().ConsMaps(), batchSys.Snapshot().ConsMaps()) {
		t.Fatal("consolidated p-mappings differ between batch and sequential adds")
	}
	if got, want := len(batchSys.Corpus.Sources), len(corpus.Sources); got != want {
		t.Fatalf("batch system serves %d sources, want %d", got, want)
	}

	// Both grown systems must agree with the reference built from scratch
	// over the final corpus, on artifacts and on query probabilities.
	ref := mustReference(t, 0, corpus)
	qs := []*sqlparse.Query{scaleQuery(t, corpus)}
	for name, sys := range map[string]*System{"batch": batchSys, "sequential": seqSys} {
		diffArtifacts(t, 0, name, ref, sys)
		if !reflect.DeepEqual(ref.Target, sys.Target) {
			t.Fatalf("%s: consolidated schema differs from the reference", name)
		}
		diffQueries(t, 0, name, ref, sys, qs)
	}
}

// TestAddSourcesAllOrNothing: one bad source rejects the whole batch
// before anything is applied or logged — the corpus, schema state and a
// later clean batch are untouched by the failure.
func TestAddSourcesAllOrNothing(t *testing.T) {
	corpus := datagen.ScaleCorpus(40, 9)
	initial := mustCorpus(t, corpus.Domain, corpus.Sources[:30])
	sys, err := Setup(initial, Config{Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	medBefore := sys.Med

	// Duplicate against the corpus, buried mid-batch.
	bad := append(corpus.Sources[30:34:34], corpus.Sources[0])
	if _, err := sys.AddSources(bad); err == nil {
		t.Fatal("batch with an already-integrated source accepted")
	}
	// Duplicate inside the batch itself.
	bad = append(corpus.Sources[30:34:34], corpus.Sources[33])
	if _, err := sys.AddSources(bad); err == nil {
		t.Fatal("batch with an internal duplicate accepted")
	}
	if got := len(sys.Corpus.Sources); got != 30 {
		t.Fatalf("failed batches changed the corpus: %d sources, want 30", got)
	}
	if sys.Med != medBefore {
		t.Fatal("failed batch swapped the mediation result")
	}

	// Degenerate batches delegate cleanly.
	if fast, err := sys.AddSources(nil); err != nil || !fast {
		t.Fatalf("empty batch: fast=%v err=%v", fast, err)
	}
	// The clean remainder still integrates.
	if _, err := sys.AddSources(corpus.Sources[30:]); err != nil {
		t.Fatalf("clean batch after failures: %v", err)
	}
	if got := len(sys.Corpus.Sources); got != 40 {
		t.Fatalf("corpus has %d sources, want 40", got)
	}
}

// TestAddSourcesBatchCounters: one batch advances the batch counters
// exactly once, every source rides the fast path, and bulk growth keeps
// the zero-fallback invariant (hub rows are refreshed before mediation
// reads the enlarged vocabulary).
func TestAddSourcesBatchCounters(t *testing.T) {
	corpus := datagen.ScaleCorpus(150, 11)
	initial := mustCorpus(t, corpus.Domain, corpus.Sources[:100])
	reg := obs.NewRegistry()
	sys, err := Setup(initial, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.AddSources(corpus.Sources[100:])
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Fatal("scale batch rebuilt")
	}
	for name, want := range map[string]int64{
		"setup.addsource.batches":   1,
		"setup.addsource.batch_ops": 50,
		"add_source.fast":           50,
		"add_source.rebuild":        0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Counter("setup.sim_matrix.fallback_lookups").Value(); got != 0 {
		t.Errorf("setup.sim_matrix.fallback_lookups = %d after batch add, want 0", got)
	}
	if got := fmt.Sprint(len(sys.Corpus.Sources)); got != "150" {
		t.Fatalf("corpus has %s sources, want 150", got)
	}
}

// TestRemoveSourceCounters: the remove side reports like the add side —
// a removal that keeps the clustering counts remove_source.fast, one that
// changes it (the only source carrying a frequent attribute leaves)
// counts remove_source.rebuild, and either way the removal's span is
// adopted into System.Trace.
func TestRemoveSourceCounters(t *testing.T) {
	var sources []*schema.Source
	for i := 0; i < 10; i++ {
		attrs, row := []string{"alpha", "bravo"}, []string{"v1", "v2"}
		if i == 9 {
			attrs, row = append(attrs, "zulu"), append(row, "v3")
		}
		sources = append(sources, schema.MustNewSource(fmt.Sprintf("s%02d", i), attrs, [][]string{row}))
	}
	reg := obs.NewRegistry()
	sys, err := Setup(mustCorpus(t, "test", sources), Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Med.PMed.Schemas[0].ClusterOf("zulu") == nil {
		t.Fatal("zulu is not mediated; the corpus no longer sits on the frequency threshold")
	}
	want := map[string]int64{"remove_source.fast": 0, "remove_source.rebuild": 0, "commit.remove_source": 0}
	for _, step := range []struct {
		victim, counter string
		fast            bool
	}{{"s00", "remove_source.fast", true}, {"s09", "remove_source.rebuild", false}} {
		fast, err := sys.RemoveSource(step.victim)
		if err != nil || fast != step.fast {
			t.Fatalf("RemoveSource(%s): fast=%v err=%v, want fast=%v", step.victim, fast, err, step.fast)
		}
		want[step.counter]++
		want["commit.remove_source"]++
		for name, n := range want {
			if got := reg.Counter(name).Value(); got != n {
				t.Errorf("after %s: %s = %d, want %d", step.victim, name, got, n)
			}
		}
		if sp := sys.Trace.Find("remove_source"); sp == nil || sp.Find("mediate") == nil {
			t.Errorf("after %s: no remove_source span with a mediate child under System.Trace", step.victim)
		}
	}
	if sys.Med.PMed.Schemas[0].ClusterOf("zulu") != nil {
		t.Error("zulu still mediated after its only source left")
	}
}
