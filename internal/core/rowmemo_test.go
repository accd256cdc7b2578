package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
)

// sameBits reports how got differs from want: reflect.DeepEqual, and
// then every weight and probability compared as bits (DeepEqual's ==
// would let 0 stand for -0).
func sameBits(got, want *pmapping.PMapping) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("p-mappings differ:\n%+v\nvs\n%+v", got, want)
	}
	for i, g := range got.Groups {
		for k, c := range g.Corrs {
			if math.Float64bits(c.Weight) != math.Float64bits(want.Groups[i].Corrs[k].Weight) {
				return fmt.Errorf("group %d corr %d: weight bits differ", i, k)
			}
		}
		for k, p := range g.Probs {
			if math.Float64bits(p) != math.Float64bits(want.Groups[i].Probs[k]) {
				return fmt.Errorf("group %d mapping %d: probability bits differ", i, k)
			}
		}
	}
	return nil
}

// TestRowMemoMatchesBuild is the bitwise gate for the p-mapping fast
// path: for every source × schema of the five domains and a scale
// corpus, the memoized correspondence rows joined in attribute order and
// fed to pmapping.BuildCorrs give exactly pmapping.Build under the same
// matrix similarity — and so does the p-mapping setup installed. Setup
// must already have memoized every row the check reads.
func TestRowMemoMatchesBuild(t *testing.T) {
	type corpus struct {
		name string
		c    *schema.Corpus
	}
	var corpora []corpus
	for _, d := range datagen.AllDomains() {
		corpora = append(corpora, corpus{d.Name, datagen.MustGenerate(d).Corpus})
	}
	corpora = append(corpora, corpus{"scale-500", datagen.ScaleCorpus(500, 7)})
	for _, tc := range corpora {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Setup(tc.c, Config{Obs: obs.Disabled})
			if err != nil {
				t.Fatal(err)
			}
			cfg := sys.pmapConfig()
			for _, src := range tc.c.Sources {
				for l, m := range sys.Med.PMed.Schemas {
					var raw []pmapping.Corr
					for _, a := range src.Attrs {
						row, ok := sys.caches.rows[l][a]
						if !ok {
							t.Fatalf("%s schema %d: setup memoized no row for %q", src.Name, l, a)
						}
						raw = append(raw, row...)
					}
					got, err := pmapping.BuildCorrs(src.Name, m, raw, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := pmapping.Build(src, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s schema %d: BuildCorrs over memo rows vs Build: %v", src.Name, l, err)
					}
					if err := sameBits(sys.Maps[src.Name][l], want); err != nil {
						t.Fatalf("%s schema %d: installed p-mapping vs Build: %v", src.Name, l, err)
					}
				}
			}
		})
	}
}

// TestCreatorKeepsCanonicalUnaliased: the source that creates a dedup
// entry keeps the canonical p-mapping uncloned. Feedback on that source
// must leave its twins, the canonical value and a snapshot pinned before
// the feedback bit for bit as they were, and a twin added afterwards must
// get exactly what a fresh pmapping.Build gives.
func TestCreatorKeepsCanonicalUnaliased(t *testing.T) {
	sys := twinSystem(t, Config{Obs: obs.Disabled})
	attrs := []string{"name", "phone", "address"}
	twins := []string{"s00", "s01", "s02"}
	key := attrSetKey(attrs)
	creator := sys.caches.pmaps.m[dedupKey{key, 0}].owner

	deep := func(maps map[string][]*pmapping.PMapping) map[string][]*pmapping.PMapping {
		out := make(map[string][]*pmapping.PMapping, len(maps))
		for name, pms := range maps {
			for _, pm := range pms {
				out[name] = append(out[name], pm.Clone())
			}
		}
		return out
	}
	var canon, canonBefore []*pmapping.PMapping
	for l := range sys.Med.PMed.Schemas {
		e := sys.caches.pmaps.m[dedupKey{key, l}]
		for _, name := range twins {
			if kept := sys.Maps[name][l] == e.val; kept != (name == e.owner) {
				t.Fatalf("schema %d: %s holds the canonical = %v, creator is %s", l, name, kept, e.owner)
			}
		}
		canon = append(canon, e.val)
		canonBefore = append(canonBefore, e.val.Clone())
	}
	pinned := sys.Snapshot()
	pinnedBefore := deep(pinned.Maps)

	for l, pm := range sys.Maps[creator] {
		for _, g := range pm.Groups {
			for _, c := range g.Corrs {
				if err := sys.SubmitFeedback(Feedback{Source: creator, SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: false}); err != nil {
					t.Fatalf("feedback: %v", err)
				}
			}
		}
	}
	if sameBits(sys.Maps[creator][0], canonBefore[0]) == nil {
		t.Fatal("feedback left the creator's p-mapping unchanged; the check proves nothing")
	}

	for _, name := range twins {
		if name == creator {
			continue
		}
		for l, pm := range sys.Maps[name] {
			if err := sameBits(pm, pinnedBefore[name][l]); err != nil {
				t.Fatalf("twin %s schema %d moved under feedback on %s: %v", name, l, creator, err)
			}
		}
	}
	for l := range canon {
		if err := sameBits(canon[l], canonBefore[l]); err != nil {
			t.Fatalf("schema %d: feedback reached the canonical p-mapping: %v", l, err)
		}
	}
	for name, pms := range pinned.Maps {
		for l, pm := range pms {
			if err := sameBits(pm, pinnedBefore[name][l]); err != nil {
				t.Fatalf("pinned snapshot: %s schema %d moved: %v", name, l, err)
			}
		}
	}

	late := schema.MustNewSource("s99", attrs, [][]string{{"x", "y", "z"}})
	if _, err := sys.AddSources([]*schema.Source{late}); err != nil {
		t.Fatal(err)
	}
	for l, m := range sys.Med.PMed.Schemas {
		want, err := pmapping.Build(late, m, sys.pmapConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(sys.Maps["s99"][l], want); err != nil {
			t.Fatalf("late twin schema %d vs fresh Build: %v", l, err)
		}
	}
}

// TestEmptiedShardTakesNewSequence: a shard emptied in the same
// restructure that hands it a different clustering sequence — which an
// empty shard may take — serves the newcomer's p-mappings the
// coordinator built for that sequence, never anything built for the old
// one: they equal a fresh pmapping.Build under the new sequence, bit for
// bit, although the shard's own caches hold rows and canonical values of
// the newcomer's attribute set for the old sequence.
func TestEmptiedShardTakesNewSequence(t *testing.T) {
	sys := twinSystem(t, Config{Obs: obs.Disabled})
	var other []*schema.Source
	for i := 0; i < 4; i++ {
		other = append(other, schema.MustNewSource(fmt.Sprintf("o%02d", i),
			[]string{"name", "address", "email"}, [][]string{{"a", "b", "c"}}))
	}
	elsewhere, err := Setup(mustCorpus(t, "other", other), Config{Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	med := elsewhere.Med
	if med.PMed.SameSequence(sys.Med.PMed) {
		t.Fatal("the two corpora cluster alike; the check proves nothing")
	}
	var drop []string
	for _, src := range sys.Corpus.Sources {
		drop = append(drop, src.Name)
	}
	// A twin of the held sources, whose (attr set, schema) entries and
	// rows the caches already hold for the old sequence.
	late := schema.MustNewSource("s99", []string{"name", "phone", "address"}, [][]string{{"x", "y", "z"}})
	if err := sys.ShardRestructure(coordinate(t, sys, []*schema.Source{late}, drop, med)); err != nil {
		t.Fatal(err)
	}
	for l, m := range med.PMed.Schemas {
		want, err := pmapping.Build(late, m, sys.pmapConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(sys.Maps["s99"][l], want); err != nil {
			t.Fatalf("schema %d: served a p-mapping built for the old sequence: %v", l, err)
		}
	}
}
