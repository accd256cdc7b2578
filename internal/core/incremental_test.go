package core

import (
	"math"
	"strings"
	"testing"

	"udi/internal/datagen"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Incremental addition must converge to the same system as batch setup:
// same schema set, same probabilities, same query answers.
func TestAddSourceMatchesBatch(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 30
	c := datagen.MustGenerate(spec)
	all := c.Corpus.Sources

	batch, err := Setup(c.Corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Start with a 24-source prefix, add the remaining 6 one at a time.
	incr, err := Setup(c.Corpus.Prefix(24), Config{})
	if err != nil {
		t.Fatal(err)
	}
	fastPaths := 0
	for _, src := range all[24:] {
		fast, err := incr.AddSources([]*schema.Source{src})
		if err != nil {
			t.Fatal(err)
		}
		if fast {
			fastPaths++
		}
	}
	t.Logf("%d of 6 additions took the fast path", fastPaths)

	// Same clusterings and probabilities (matched by clustering key; the
	// incremental path preserves its original order).
	if batch.Med.PMed.Len() != incr.Med.PMed.Len() {
		t.Fatalf("schema counts differ: %d vs %d", batch.Med.PMed.Len(), incr.Med.PMed.Len())
	}
	batchProbs := map[string]float64{}
	for i, m := range batch.Med.PMed.Schemas {
		batchProbs[m.Key()] = batch.Med.PMed.Probs[i]
	}
	for i, m := range incr.Med.PMed.Schemas {
		want, ok := batchProbs[m.Key()]
		if !ok {
			t.Fatalf("incremental schema %d absent from batch", i)
		}
		if math.Abs(incr.Med.PMed.Probs[i]-want) > 1e-9 {
			t.Errorf("schema %d prob %f vs batch %f", i, incr.Med.PMed.Probs[i], want)
		}
	}

	// Same answers on every domain query.
	for _, qs := range spec.Queries {
		q := sqlparse.MustParse(qs)
		rb, err := batch.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := incr.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rb.Ranked) != len(ri.Ranked) {
			t.Fatalf("%q: %d vs %d answers", qs, len(rb.Ranked), len(ri.Ranked))
		}
		bm := map[string]float64{}
		for _, a := range rb.Ranked {
			bm[strings.Join(a.Values, "\x1f")] = a.Prob
		}
		for _, a := range ri.Ranked {
			if p, ok := bm[strings.Join(a.Values, "\x1f")]; !ok || math.Abs(p-a.Prob) > 1e-9 {
				t.Errorf("%q: tuple prob %f vs batch %f", qs, a.Prob, p)
			}
		}
	}
}

func TestAddSourceDuplicateName(t *testing.T) {
	_, sys := peopleSystem(t)
	if _, err := sys.AddSources([]*schema.Source{sys.Corpus.Sources[0]}); err == nil {
		t.Error("duplicate source name accepted")
	}
}

func TestRemoveSource(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 25
	c := datagen.MustGenerate(spec)
	sys, err := Setup(c.Corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	victim := sys.Corpus.Sources[10].Name
	before := len(sys.Corpus.Sources)
	if _, err := sys.RemoveSource(victim); err != nil {
		t.Fatal(err)
	}
	if len(sys.Corpus.Sources) != before-1 {
		t.Errorf("source count %d, want %d", len(sys.Corpus.Sources), before-1)
	}
	if _, ok := sys.Maps[victim]; ok {
		t.Error("removed source still has p-mappings")
	}
	// Queries still answer and never touch the removed source.
	rs, err := sys.Query("SELECT name FROM People")
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range rs.Instances {
		if inst.Source == victim {
			t.Errorf("answer from removed source %q", victim)
		}
	}
	if _, err := sys.RemoveSource("nope"); err == nil {
		t.Error("unknown source removal accepted")
	}
}

func TestRemoveLastSourceRejected(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 12
	c := datagen.MustGenerate(spec)
	sys, err := Setup(c.Corpus.Prefix(1), Config{})
	if err != nil {
		t.Skip("single-source setup not viable for this sample")
	}
	if _, err := sys.RemoveSource(sys.Corpus.Sources[0].Name); err == nil {
		t.Error("removing the last source accepted")
	}
}
