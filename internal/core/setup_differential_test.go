package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"udi/internal/answer"
	"udi/internal/obs"
	"udi/internal/reference"
	"udi/internal/schema"
	"udi/internal/sqlparse"
	"udi/internal/strutil"
)

// The differential suites compare the production system against
// internal/reference: straight-line paper code with direct similarity
// calls, every source computed from scratch, serially. The reference has
// no query engine of its own (it imports only the algorithm packages), so
// answers are compared by running a fresh, cold answer.Engine over the
// reference's artifacts.

func mustReference(t *testing.T, seed int, c *schema.Corpus) *reference.System {
	t.Helper()
	ref, err := reference.Setup(c, reference.Config{})
	if err != nil {
		t.Fatalf("seed %d: reference setup: %v", seed, err)
	}
	return ref
}

// diffArtifacts requires sys's p-med-schema, per-source p-mappings,
// consolidated schema and (current epoch's) consolidated p-mappings to be
// deeply identical to the reference's.
func diffArtifacts(t *testing.T, seed int, label string, ref *reference.System, sys *System) {
	t.Helper()
	if !reflect.DeepEqual(ref.Med.PMed, sys.Med.PMed) {
		t.Fatalf("seed %d: %s: p-med-schemas differ", seed, label)
	}
	if !reflect.DeepEqual(ref.Maps, sys.Maps) {
		t.Fatalf("seed %d: %s: p-mappings differ", seed, label)
	}
	if !reflect.DeepEqual(ref.Target, sys.Target) {
		t.Fatalf("seed %d: %s: consolidated schemas differ", seed, label)
	}
	if !reflect.DeepEqual(ref.ConsMaps, sys.Snapshot().ConsMaps()) {
		t.Fatalf("seed %d: %s: consolidated p-mappings differ", seed, label)
	}
}

// diffQueries compares sys's ranked answers over qs with the reference's
// at 1e-12.
func diffQueries(t *testing.T, seed int, label string, ref *reference.System, sys *System, qs []*sqlparse.Query) {
	t.Helper()
	e := answer.NewEngine(ref.Corpus)
	for _, q := range qs {
		ra, err := e.AnswerPMed(answer.PMedInput{PMed: ref.Med.PMed, Maps: ref.Maps}, q)
		if err != nil {
			t.Fatalf("seed %d: %s: reference query: %v", seed, label, err)
		}
		rb, err := sys.QueryParsed(q)
		if err != nil {
			t.Fatalf("seed %d: %s: query: %v", seed, label, err)
		}
		if len(ra.Ranked) != len(rb.Ranked) {
			t.Fatalf("seed %d: %s: %d vs %d answers", seed, label, len(ra.Ranked), len(rb.Ranked))
		}
		probs := make(map[string]float64, len(ra.Ranked))
		for _, ans := range ra.Ranked {
			probs[strings.Join(ans.Values, "\x1f")] = ans.Prob
		}
		for _, ans := range rb.Ranked {
			p, ok := probs[strings.Join(ans.Values, "\x1f")]
			if !ok {
				t.Fatalf("seed %d: %s: extra answer %v", seed, label, ans.Values)
			}
			if math.Abs(p-ans.Prob) > 1e-12 {
				t.Fatalf("seed %d: %s: answer %v prob %g vs %g", seed, label, ans.Values, p, ans.Prob)
			}
		}
	}
}

// randomQuery selects one random frequent attribute of the corpus, or
// nil when it has none.
func randomQuery(rng *rand.Rand, c *schema.Corpus) []*sqlparse.Query {
	attrs := c.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		return nil
	}
	return []*sqlparse.Query{sqlparse.MustParse("SELECT " + attrs[rng.Intn(len(attrs))] + " FROM t")}
}

// TestSetupDifferentialFastVsNaive pins the production setup (interned
// sim matrix + schema-dedup caches + parallel stages) to the reference
// over randomized corpora: the p-med-schemas, per-source p-mappings,
// consolidated schema and consolidated p-mappings must be deeply
// identical, and every query answer's probability must agree within
// 1e-12. Any drift — a matrix entry that isn't the exact base value, a
// dedup key collision, an order-dependent apply — fails here.
func TestSetupDifferentialFastVsNaive(t *testing.T) {
	nCorpora := 100
	if testing.Short() {
		nCorpora = 20
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		corpus := randomCorpus(rng)
		ref := mustReference(t, seed, corpus)
		fast, err := Setup(corpus, Config{Parallelism: 4, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("seed %d: fast setup: %v", seed, err)
		}
		diffArtifacts(t, seed, "setup", ref, fast)
		diffQueries(t, seed, "setup", ref, fast, randomQuery(rng, corpus))
	}
}

// TestSetupDifferentialBlockedVsDense pins the LSH-blocked sparse
// similarity matrix to direct calls of the base function under a
// non-default matcher in both roles — two separately built matrices, and
// a similarity whose band structure the default matcher's tests never
// see. Banding may only change which values are precomputed versus
// memoized on demand, never a value the pipeline reads: every setup
// artifact must be deeply identical and every query probability must
// agree within 1e-12.
func TestSetupDifferentialBlockedVsDense(t *testing.T) {
	nCorpora := 100
	if testing.Short() {
		nCorpora = 20
	}
	lev := func(a, b string) float64 {
		return strutil.LevenshteinSim(strutil.Normalize(a), strutil.Normalize(b))
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		corpus := randomCorpus(rng)

		var rcfg reference.Config
		rcfg.Mediate.Sim, rcfg.PMap.Sim = lev, strutil.AttrSim
		direct, err := reference.Setup(corpus, rcfg)
		if err != nil {
			t.Fatalf("seed %d: direct setup: %v", seed, err)
		}
		cfg := Config{Parallelism: 4, Obs: obs.Disabled}
		cfg.Mediate.Sim, cfg.PMap.Sim = lev, strutil.AttrSim
		blocked, err := Setup(corpus, cfg)
		if err != nil {
			t.Fatalf("seed %d: blocked setup: %v", seed, err)
		}
		diffArtifacts(t, seed, "blocked", direct, blocked)
		diffQueries(t, seed, "blocked", direct, blocked, randomQuery(rng, corpus))
	}
}

// TestSetupDifferentialAfterIncrementalAdd extends the differential
// check through the incremental path: a system grown with a one-element
// AddSources (matrix Extend + dedup reuse) must hold the same artifacts,
// consolidated ones included, and answer identically to the reference
// built directly over the final corpus.
func TestSetupDifferentialAfterIncrementalAdd(t *testing.T) {
	nCorpora := 30
	if testing.Short() {
		nCorpora = 8
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		corpus := randomCorpus(rng)
		if len(corpus.Sources) < 2 {
			continue
		}
		// Grow a fast system from all but the last source.
		initial := corpus.Sources[:len(corpus.Sources)-1]
		last := corpus.Sources[len(corpus.Sources)-1]
		sub := mustCorpus(t, corpus.Domain, initial)
		fast, err := Setup(sub, Config{Parallelism: 4, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("seed %d: fast setup: %v", seed, err)
		}
		if _, err := fast.AddSources([]*schema.Source{last}); err != nil {
			t.Fatalf("seed %d: add source: %v", seed, err)
		}
		ref := mustReference(t, seed, corpus)

		// The p-med-schema clusterings, p-mappings and consolidations must
		// agree exactly (probabilities refresh over the same counts on both
		// paths).
		diffArtifacts(t, seed, "after add", ref, fast)
		attrs := corpus.FrequentAttrs(0.10)
		if len(attrs) == 0 {
			continue
		}
		diffQueries(t, seed, "after add", ref, fast,
			[]*sqlparse.Query{sqlparse.MustParse("SELECT " + attrs[0] + " FROM t")})
	}
}

func mustCorpus(t *testing.T, domain string, sources []*schema.Source) *schema.Corpus {
	t.Helper()
	c, err := schema.NewCorpus(domain, sources)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSetupDifferentialAfterFeedback runs feedback through both paths
// and requires identical conditioned marginals: the production path's
// cloned p-mappings must condition exactly like the reference's, and its
// scoped cache invalidation must leave no stale state behind.
func TestSetupDifferentialAfterFeedback(t *testing.T) {
	nCorpora := 30
	if testing.Short() {
		nCorpora = 8
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(2000 + seed)))
		corpus := randomCorpus(rng)
		ref := mustReference(t, seed, corpus)
		fast, err := Setup(corpus, Config{Parallelism: 4, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("seed %d: fast setup: %v", seed, err)
		}
		// Apply the same feedback to both systems.
		ops := gatherFeedback(fast, rng, 1)
		if len(ops) == 0 {
			continue
		}
		if err := ref.Feedback(reference.Feedback(ops[0])); err != nil {
			t.Fatalf("seed %d: reference feedback: %v", seed, err)
		}
		if err := fast.SubmitFeedback(ops[0]); err != nil {
			t.Fatalf("seed %d: fast feedback: %v", seed, err)
		}
		diffArtifacts(t, seed, "after feedback", ref, fast)
	}
}

// TestSetupFastPathCounters checks the obs accounting of one fast setup
// over a corpus with repeated schemas: the matrix builds once, and the
// dedup cache records one miss per distinct (attr set, schema) pair with
// everything else a hit.
func TestSetupFastPathCounters(t *testing.T) {
	sources := make([]*schema.Source, 0, 9)
	for i := 0; i < 9; i++ {
		// Three distinct schema shapes, three sources each.
		var attrs []string
		switch i % 3 {
		case 0:
			attrs = []string{"name", "phone"}
		case 1:
			attrs = []string{"name", "phones"}
		case 2:
			attrs = []string{"phone", "address"}
		}
		sources = append(sources, schema.MustNewSource(fmt.Sprintf("s%02d", i), attrs,
			[][]string{{"v1", "v2"}}))
	}
	corpus := mustCorpus(t, "counters", sources)
	reg := obs.NewRegistry()
	sys, err := Setup(corpus, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("setup.sim_matrix.builds").Value(); got != 1 {
		t.Errorf("sim_matrix.builds = %d, want 1", got)
	}
	nSchemas := int64(sys.Med.PMed.Len())
	wantMisses := 3 * nSchemas // three distinct attr sets
	wantTotal := 9 * nSchemas  // nine sources
	if got := reg.Counter("setup.pmap_dedup.misses").Value(); got != wantMisses {
		t.Errorf("pmap_dedup.misses = %d, want %d", got, wantMisses)
	}
	if got := reg.Counter("setup.pmap_dedup.hits").Value(); got != wantTotal-wantMisses {
		t.Errorf("pmap_dedup.hits = %d, want %d", got, wantTotal-wantMisses)
	}
}
