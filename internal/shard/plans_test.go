package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestWarmShardPlansAcrossMixedHistory drives one history of feedback,
// fast adds and removes, and one add that forces a rebuild through a
// sharded system and a single core alike, at 1 and 4 shards. After every
// commit each query, answered through the shard hosts' warm plan caches,
// equals a fresh engine's over the single core's state bit for bit, and
// the first query after a feedback or fast commit hits the plan cache on
// every shard.
func TestWarmShardPlansAcrossMixedHistory(t *testing.T) {
	spec := datagen.Car(101)
	spec.NumSources = 128
	gen := datagen.MustGenerate(spec)
	base, held := gen.Corpus.Sources[:120], gen.Corpus.Sources[120:]
	corpus, err := schema.NewCorpus(gen.Corpus.Domain, base)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*sqlparse.Query, len(spec.Queries))
	for i, s := range spec.Queries {
		qs[i] = sqlparse.MustParse(s)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ctx := context.Background()
			oracle, err := core.Setup(corpus, core.Config{Obs: obs.Disabled})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sh, err := New(corpus, core.Config{Obs: reg}, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			compare := func(tag string) {
				t.Helper()
				sn := oracle.Snapshot()
				cold := answer.NewEngine(sn.Corpus)
				in := answer.PMedInput{PMed: sn.Med.PMed, Maps: sn.Maps}
				v := sh.View()
				for i, q := range qs {
					want, err := cold.ScanPMed(ctx, in, q, answer.CountOnly)
					if err != nil {
						t.Fatal(err)
					}
					answer.Rank(want)
					got, err := v.RunCtx(ctx, core.UDI, q)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Ranked) != len(want.Ranked) || got.Occurrences() != want.Occurrences() {
						t.Fatalf("%s: q%d: %d answers, cold %d", tag, i, len(got.Ranked), len(want.Ranked))
					}
					for k, w := range want.Ranked {
						if g := got.Ranked[k]; g.Prob != w.Prob || !slices.Equal(g.Values, w.Values) {
							t.Fatalf("%s: q%d: answer %d is %v %.17g, cold %v %.17g", tag, i, k, g.Values, g.Prob, w.Values, w.Prob)
						}
					}
				}
			}
			hits := func(tag string) {
				t.Helper()
				before := reg.Snapshot().Counters
				if _, err := sh.View().RunCtx(ctx, core.UDI, qs[0]); err != nil {
					t.Fatal(err)
				}
				after := reg.Snapshot().Counters
				if after["plan_cache.misses"] != before["plan_cache.misses"] || after["plan_cache.hits"] <= before["plan_cache.hits"] {
					t.Fatalf("%s: the next query missed the plan cache (hits %d -> %d, misses %d -> %d)", tag,
						before["plan_cache.hits"], after["plan_cache.hits"], before["plan_cache.misses"], after["plan_cache.misses"])
				}
			}
			compare("setup")
			rng := rand.New(rand.NewSource(int64(shards)))
			held := held
			for step := 0; step < 12; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch step % 4 {
				case 0, 1:
					for fed := false; !fed; {
						src := oracle.Corpus.Sources[rng.Intn(len(oracle.Corpus.Sources))]
						l := rng.Intn(oracle.Med.PMed.Len())
						g := oracle.Maps[src.Name][l].Groups[0]
						if len(g.Corrs) == 0 {
							continue
						}
						c := g.Corrs[rng.Intn(len(g.Corrs))]
						fb := core.Feedback{Source: src.Name, SrcAttr: c.SrcAttr, SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: rng.Float64() < 0.5}
						oerr, serr := oracle.SubmitFeedback(fb), sh.SubmitFeedback(fb)
						if (oerr != nil) != (serr != nil) {
							t.Fatalf("%s: feedback: oracle err %v, sharded err %v", tag, oerr, serr)
						}
						fed = oerr == nil
					}
					hits(tag + " feedback")
				case 2:
					add := held[:2]
					held = held[2:]
					ofast, oerr := oracle.AddSources(add)
					sfast, serr := sh.AddSources(add)
					if oerr != nil || serr != nil || !ofast || !sfast {
						t.Fatalf("%s: add: oracle fast=%v err=%v, sharded fast=%v err=%v, want both fast", tag, ofast, oerr, sfast, serr)
					}
					hits(tag + " fast add")
				case 3:
					name := oracle.Corpus.Sources[rng.Intn(len(oracle.Corpus.Sources))].Name
					ofast, oerr := oracle.RemoveSource(name)
					sfast, serr := sh.RemoveSource(name)
					if oerr != nil || serr != nil || ofast != sfast {
						t.Fatalf("%s: remove: oracle fast=%v err=%v, sharded fast=%v err=%v", tag, ofast, oerr, sfast, serr)
					}
					if sfast {
						hits(tag + " fast remove")
					}
				}
				compare(tag)
			}

			// Sources that all carry a new attribute make it frequent: the
			// mediation changes and every p-mapping is rebuilt.
			var novel []*schema.Source
			for i := 0; i < len(oracle.Corpus.Sources)/8; i++ {
				src := oracle.Corpus.Sources[i]
				rows := make([][]string, len(src.Rows))
				for r, row := range src.Rows {
					rows[r] = append(slices.Clone(row), fmt.Sprintf("z%d", r))
				}
				novel = append(novel, schema.MustNewSource(fmt.Sprintf("novel-%d", i), append(slices.Clone(src.Attrs), "zulu"), rows))
			}
			ofast, oerr := oracle.AddSources(novel)
			sfast, serr := sh.AddSources(novel)
			if oerr != nil || serr != nil || ofast || sfast {
				t.Fatalf("novel batch: oracle fast=%v err=%v, sharded fast=%v err=%v, want both to rebuild", ofast, oerr, sfast, serr)
			}
			compare("after the rebuild")
		})
	}
}
