package core_test

import (
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shard"
)

// TestSetupReadsAreHubCovered is the hub-coverage guard: the similarity
// matrix precomputes only the frequent attributes' rows, on the claim
// that every pair mediation and p-mapping construction read has a
// frequent side. The exact memoized fallback is a correctness net, not a
// load-bearing path, so setup and growth must record zero fallback
// lookups — on every evaluation domain, on a scale corpus grown by one
// batch, and on a 4-shard system grown in small batches.
func TestSetupReadsAreHubCovered(t *testing.T) {
	const counter = "setup.sim_matrix.fallback_lookups"
	check := func(t *testing.T, reg *obs.Registry) {
		t.Helper()
		if got := reg.Counter(counter).Value(); got != 0 {
			t.Errorf("%s = %d, want 0 (every pipeline read hub-covered)", counter, got)
		}
	}
	for _, d := range datagen.AllDomains() {
		t.Run(d.Name, func(t *testing.T) {
			reg := obs.NewRegistry()
			if _, err := core.Setup(datagen.MustGenerate(d).Corpus, core.Config{Obs: reg}); err != nil {
				t.Fatal(err)
			}
			check(t, reg)
		})
	}
	t.Run("scale-2000+batch", func(t *testing.T) {
		c := datagen.ScaleCorpus(2000, 102)
		held := len(c.Sources) - 50
		reg := obs.NewRegistry()
		sys, err := core.Setup(mustCorpus(t, c.Domain, c.Sources[:held]), core.Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.AddSources(c.Sources[held:]); err != nil {
			t.Fatal(err)
		}
		check(t, reg)
	})
	t.Run("car-4-shards+batches", func(t *testing.T) {
		c := datagen.MustGenerate(datagen.Car(102)).Corpus
		held := len(c.Sources) - 40
		reg := obs.NewRegistry()
		sys, err := shard.New(mustCorpus(t, c.Domain, c.Sources[:held]), core.Config{Obs: reg}, shard.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := held; i < len(c.Sources); i += 4 {
			if _, err := sys.AddSources(c.Sources[i : i+4]); err != nil {
				t.Fatal(err)
			}
		}
		check(t, reg)
	})
}

func mustCorpus(t *testing.T, domain string, sources []*schema.Source) *schema.Corpus {
	t.Helper()
	c, err := schema.NewCorpus(domain, sources)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
