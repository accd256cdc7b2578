package core

import (
	"math/rand"
	"reflect"
	"testing"

	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/reference"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// gatherFeedback collects up to n feedback ops spread across sources and
// schemas of sys, with rng-driven targets and confirmations. The ops are
// pure values, so the same sequence can be replayed into any system built
// over the same corpus.
func gatherFeedback(sys *System, rng *rand.Rand, n int) []Feedback {
	var ops []Feedback
	for _, src := range sys.Corpus.Sources {
		for l, pm := range sys.Maps[src.Name] {
			for _, g := range pm.Groups {
				if len(g.Corrs) == 0 {
					continue
				}
				c := g.Corrs[rng.Intn(len(g.Corrs))]
				ops = append(ops, Feedback{
					Source: src.Name, SrcAttr: c.SrcAttr,
					SchemaIdx: l, MedIdx: c.MedIdx,
					Confirmed: rng.Float64() < 0.5,
				})
				break
			}
			if len(ops) == n {
				return ops
			}
		}
		if len(ops) == n {
			return ops
		}
	}
	return ops
}

// TestFeedbackDifferentialScopedVsFull pins the scoped-invalidation group
// commit to the serial reference over randomized multi-schema corpora:
// after the same feedback sequence, the p-mappings and consolidated
// p-mappings must be byte-identical to the reference's (which conditions
// its own maps one op at a time and re-consolidates the source from
// scratch), and every answer probability must agree within 1e-12 —
// including answers served from plans that the scoped path retargeted
// in place rather than rebuilding, and from dedup-cache entries it chose
// to keep. Any over-narrow invalidation (a stale plan, a conditioned
// value leaking into a canonical cache entry) diverges here.
func TestFeedbackDifferentialScopedVsFull(t *testing.T) {
	nCorpora := 100
	if testing.Short() {
		nCorpora = 20
	}
	for seed := 0; seed < nCorpora; seed++ {
		rng := rand.New(rand.NewSource(int64(3000 + seed)))
		corpus := randomCorpus(rng)

		scoped, err := Setup(corpus, Config{Parallelism: 4, Obs: obs.Disabled})
		if err != nil {
			t.Fatalf("seed %d: scoped setup: %v", seed, err)
		}
		ref := mustReference(t, seed, corpus)

		// Warm the plan cache before the feedback so the scoped system
		// must retarget live plans, not rebuild from empty.
		attrs := corpus.FrequentAttrs(0.10)
		var qs []*sqlparse.Query
		for i := 0; i < len(attrs) && i < 3; i++ {
			qs = append(qs, sqlparse.MustParse("SELECT "+attrs[i]+" FROM t"))
		}
		for _, q := range qs {
			if _, err := scoped.QueryParsed(q); err != nil {
				t.Fatalf("seed %d: warmup query: %v", seed, err)
			}
		}

		ops := gatherFeedback(scoped, rng, 6)
		if len(ops) == 0 {
			continue
		}
		// Mix in one name-addressed op, which fans out across every
		// possible schema that mediates the name (multi-schema dirty set).
		if len(attrs) > 0 {
			for _, src := range corpus.Sources {
				for _, a := range src.Attrs {
					if a == attrs[0] {
						ops = append(ops, Feedback{
							Source: src.Name, SrcAttr: a, MedName: attrs[0],
							Confirmed: rng.Float64() < 0.5,
						})
					}
				}
			}
		}
		for i, fb := range ops {
			serr, rerr := scoped.SubmitFeedback(fb), ref.Feedback(reference.Feedback(fb))
			if (serr == nil) != (rerr == nil) {
				t.Fatalf("seed %d: op %d: divergent outcomes %v / %v", seed, i, serr, rerr)
			}
		}

		diffArtifacts(t, seed, "post-feedback", ref, scoped)
		diffQueries(t, seed, "post-feedback", ref, scoped, qs)

		// Grow the system with a twin of a fed-back source: the add
		// consults the dedup caches the scoped path deliberately kept, so
		// a conditioned value that leaked into a canonical entry would
		// surface as a twin that differs from a fresh pmapping.Build.
		var fed *schema.Source
		for _, src := range corpus.Sources {
			if src.Name == ops[0].Source {
				fed = src
				break
			}
		}
		if fed == nil {
			continue
		}
		rows := [][]string{make([]string, len(fed.Attrs))}
		for j := range rows[0] {
			rows[0][j] = "twin-v"
		}
		twin := schema.MustNewSource("twin-of-fed", fed.Attrs, rows)
		fast, err := scoped.AddSources([]*schema.Source{twin})
		if err != nil {
			t.Fatalf("seed %d: add twin: %v", seed, err)
		}
		for l, m := range scoped.Med.PMed.Schemas {
			fresh, err := pmapping.Build(twin, m, pmapping.Config{})
			if err != nil {
				t.Fatalf("seed %d: fresh twin p-mapping: %v", seed, err)
			}
			if !reflect.DeepEqual(fresh, scoped.Maps["twin-of-fed"][l]) {
				t.Fatalf("seed %d: schema %d: twin p-mapping differs from a fresh build after scoped feedback", seed, l)
			}
		}

		// The grown system must still answer like the reference over the
		// final corpus: with the same feedback replayed when the add kept
		// the clustering (conditioning and a fast add commute), without it
		// when the add rebuilt from scratch.
		grown := mustReference(t, seed, mustCorpus(t, corpus.Domain, append(corpus.Sources[:len(corpus.Sources):len(corpus.Sources)], twin)))
		if fast {
			for _, fb := range ops {
				_ = grown.Feedback(reference.Feedback(fb)) // outcomes compared above
			}
		}
		diffArtifacts(t, seed, "post-twin", grown, scoped)
		diffQueries(t, seed, "post-twin", grown, scoped, qs)
	}
}
