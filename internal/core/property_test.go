package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// randomCorpus builds a small random corpus: a vocabulary of base names
// with plural variants (certain edges) and a random assignment of columns
// and values to sources. It exercises the full pipeline on shapes the
// curated domains do not cover.
func randomCorpus(rng *rand.Rand) *schema.Corpus {
	bases := []string{"alpha", "bravo", "carrot", "delta", "echo", "forest"}
	nBases := 2 + rng.Intn(len(bases)-1)
	variantsOf := func(b string) []string { return []string{b, b + "s"} }
	nSources := 4 + rng.Intn(6)
	var sources []*schema.Source
	for i := 0; i < nSources; i++ {
		var attrs []string
		used := map[string]bool{}
		for j := 0; j < nBases; j++ {
			if rng.Float64() < 0.6 {
				v := variantsOf(bases[j])[rng.Intn(2)]
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
		sources = append(sources, schema.MustNewSource(fmt.Sprintf("s%02d", i), attrs, rows))
	}
	c, err := schema.NewCorpus("random", sources)
	if err != nil {
		panic(err)
	}
	return c
}

// Property: on random corpora, setup succeeds, the p-med-schema is a valid
// distribution over partitions of the frequent attributes, every query's
// ranked probabilities lie in (0, 1], and the consolidated path agrees
// with the p-med-schema path (Theorem 6.2).
func TestEndToEndRandomCorpora(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		corpus := randomCorpus(rng)
		sys, err := Setup(corpus, Config{})
		if err != nil {
			t.Logf("seed %d: setup: %v", seed, err)
			return false
		}
		sum := 0.0
		for _, p := range sys.Med.PMed.Probs {
			if p <= 0 || p > 1 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Random query over one or two frequent attributes.
		attrs := corpus.FrequentAttrs(0.10)
		if len(attrs) == 0 {
			return true
		}
		sel := attrs[rng.Intn(len(attrs))]
		qs := "SELECT " + sel + " FROM t"
		if len(attrs) > 1 && rng.Float64() < 0.5 {
			other := attrs[rng.Intn(len(attrs))]
			qs += fmt.Sprintf(" WHERE %s != 'v999'", other)
		}
		q, err := sqlparse.Parse(qs)
		if err != nil {
			return false
		}
		rs, err := sys.QueryParsed(q)
		if err != nil {
			t.Logf("seed %d: query: %v", seed, err)
			return false
		}
		for _, a := range rs.Ranked {
			if a.Prob <= 0 || a.Prob > 1+1e-9 {
				t.Logf("seed %d: prob %f out of range", seed, a.Prob)
				return false
			}
		}
		// Theorem 6.2 on the same query, when consolidation materialized.
		if len(sys.Snapshot().ConsMaps()) == len(corpus.Sources) {
			cons, err := sys.Run(Consolidated, q)
			if err != nil {
				t.Logf("seed %d: consolidated: %v", seed, err)
				return false
			}
			if len(cons.Ranked) != len(rs.Ranked) {
				t.Logf("seed %d: %d vs %d answers", seed, len(rs.Ranked), len(cons.Ranked))
				return false
			}
			om := map[string]float64{}
			for _, a := range rs.Ranked {
				om[strings.Join(a.Values, "\x1f")] = a.Prob
			}
			for _, a := range cons.Ranked {
				if p, ok := om[strings.Join(a.Values, "\x1f")]; !ok || math.Abs(p-a.Prob) > 1e-6 {
					t.Logf("seed %d: tuple prob mismatch %f vs %f", seed, p, a.Prob)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: feedback conditioning preserves distributional invariants on
// random corpora: group probabilities still sum to 1 and marginals land on
// the pinned values.
func TestFeedbackInvariantsRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		corpus := randomCorpus(rng)
		sys, err := Setup(corpus, Config{})
		if err != nil {
			return false
		}
		// Pick a random existing correspondence and flip a coin.
		for _, src := range corpus.Sources {
			for l, pm := range sys.Maps[src.Name] {
				for _, g := range pm.Groups {
					if len(g.Corrs) == 0 {
						continue
					}
					c := g.Corrs[rng.Intn(len(g.Corrs))]
					confirmed := rng.Float64() < 0.5
					if err := sys.SubmitFeedback(Feedback{Source: src.Name, SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: confirmed}); err != nil {
						t.Logf("seed %d: feedback: %v", seed, err)
						return false
					}
					m := sys.Maps[src.Name][l].MarginalProb(c.SrcAttr, c.MedIdx)
					if confirmed && math.Abs(m-1) > 1e-6 {
						return false
					}
					if !confirmed && m > 1e-6 {
						return false
					}
					for _, g2 := range sys.Maps[src.Name][l].Groups {
						sum := 0.0
						for _, p := range g2.Probs {
							sum += p
						}
						if math.Abs(sum-1) > 1e-6 {
							return false
						}
					}
					return true
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
