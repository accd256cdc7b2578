package persist

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/pmapping"
	"udi/internal/sqlparse"
)

func buildSystem(t *testing.T) (*datagen.Corpus, *core.System) {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 25
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c, sys
}

func TestRoundTrip(t *testing.T) {
	c, sys := buildSystem(t)
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// The restored system must answer every domain query identically.
	for _, qs := range c.Domain.Queries {
		q := sqlparse.MustParse(qs)
		orig, err := sys.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(orig.Ranked) != len(got.Ranked) {
			t.Fatalf("%q: %d vs %d answers after restore", qs, len(orig.Ranked), len(got.Ranked))
		}
		om := map[string]float64{}
		for _, a := range orig.Ranked {
			om[strings.Join(a.Values, "\x1f")] = a.Prob
		}
		for _, a := range got.Ranked {
			if p, ok := om[strings.Join(a.Values, "\x1f")]; !ok || math.Abs(p-a.Prob) > 1e-9 {
				t.Errorf("%q: answer %v prob %f vs %f", qs, a.Values, a.Prob, p)
			}
		}
	}

	// Consolidated artifacts survive too.
	if !restored.Target.Equal(sys.Target) {
		t.Errorf("target schema changed: %s vs %s", restored.Target, sys.Target)
	}
	if len(restored.Snapshot().ConsMaps()) != len(sys.Snapshot().ConsMaps()) {
		t.Errorf("consolidated maps %d vs %d", len(restored.Snapshot().ConsMaps()), len(sys.Snapshot().ConsMaps()))
	}
	q := sqlparse.MustParse(c.Domain.Queries[0])
	want, err := sys.Run(core.Consolidated, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run(core.Consolidated, q)
	if err != nil {
		t.Fatalf("consolidated querying after restore: %v", err)
	}
	if !reflect.DeepEqual(got.Ranked, want.Ranked) {
		t.Errorf("consolidated answers changed across restore:\n got %v\nwant %v", got.Ranked, want.Ranked)
	}
}

func TestSaveLoadFile(t *testing.T) {
	_, sys := buildSystem(t)
	path := filepath.Join(t.TempDir(), "system.udi.gz")
	if err := SaveFile(path, sys); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Corpus.Sources) != len(sys.Corpus.Sources) {
		t.Errorf("sources %d vs %d", len(restored.Corpus.Sources), len(sys.Corpus.Sources))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not gzip"), core.Config{}); err == nil {
		t.Error("non-gzip input accepted")
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("not json"))
	gz.Close()
	if _, err := Load(&buf, core.Config{}); err == nil {
		t.Error("non-JSON input accepted")
	}
}

func TestLoadCorruptTruncated(t *testing.T) {
	_, sys := buildSystem(t)
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	// A truncated snapshot must surface as ErrCorrupt with a byte
	// offset, not as a loadable-but-empty system.
	cut := buf.Bytes()[:buf.Len()/3]
	_, err := Load(bytes.NewReader(cut), core.Config{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "byte") {
		t.Errorf("corruption error carries no byte offset: %v", err)
	}

	// Valid gzip+JSON that describes no sources is damage too.
	var empty bytes.Buffer
	gz := gzip.NewWriter(&empty)
	gz.Write([]byte(`{"version": 1, "domain": "people"}`))
	gz.Close()
	_, err = Load(&empty, core.Config{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-source snapshot: err = %v, want ErrCorrupt", err)
	}

	// Garbage and non-JSON streams classify as corrupt as well.
	if _, err := Load(strings.NewReader("not gzip"), core.Config{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-gzip: err = %v, want ErrCorrupt", err)
	}
}

// TestRoundTripAfterFeedback: a snapshot taken after feedback
// conditioning restores the conditioned distributions exactly — every
// p-mapping group's probabilities and 20 query answers at 1e-12.
func TestRoundTripAfterFeedback(t *testing.T) {
	c, sys := buildSystem(t)
	applied := 0
	for _, src := range sys.Corpus.Sources {
		for l, pm := range sys.Maps[src.Name] {
			for _, g := range pm.Groups {
				if len(g.Corrs) == 0 {
					continue
				}
				cr := g.Corrs[0]
				if err := sys.SubmitFeedback(core.Feedback{Source: src.Name, SchemaIdx: l, SrcAttr: cr.SrcAttr, MedIdx: cr.MedIdx, Confirmed: true}); err != nil {
					t.Fatal(err)
				}
				applied++
				break
			}
			if applied == 3 {
				break
			}
		}
		if applied == 3 {
			break
		}
	}
	if applied != 3 {
		t.Fatalf("applied %d feedback items, want 3", applied)
	}

	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Every p-mapping distribution survives bit-for-bit (to 1e-12).
	for _, src := range sys.Corpus.Sources {
		orig, got := sys.Maps[src.Name], restored.Maps[src.Name]
		if len(orig) != len(got) {
			t.Fatalf("%s: %d vs %d p-mappings", src.Name, len(orig), len(got))
		}
		for l := range orig {
			if len(orig[l].Groups) != len(got[l].Groups) {
				t.Fatalf("%s[%d]: %d vs %d groups", src.Name, l, len(orig[l].Groups), len(got[l].Groups))
			}
			for gi := range orig[l].Groups {
				og, gg := orig[l].Groups[gi], got[l].Groups[gi]
				if len(og.Probs) != len(gg.Probs) || len(og.Corrs) != len(gg.Corrs) {
					t.Fatalf("%s[%d] group %d shape changed", src.Name, l, gi)
				}
				for pi := range og.Probs {
					if math.Abs(og.Probs[pi]-gg.Probs[pi]) > 1e-12 {
						t.Errorf("%s[%d] group %d prob %d: %g vs %g",
							src.Name, l, gi, pi, og.Probs[pi], gg.Probs[pi])
					}
				}
				for ci := range og.Corrs {
					if math.Abs(og.Corrs[ci].Weight-gg.Corrs[ci].Weight) > 1e-12 {
						t.Errorf("%s[%d] group %d corr %d weight drifted", src.Name, l, gi, ci)
					}
				}
			}
		}
	}

	// 20 query answers: the 10 domain queries through both the UDI and
	// the consolidated paths, probabilities at 1e-12.
	for _, qs := range c.Domain.Queries {
		q := sqlparse.MustParse(qs)
		for _, mode := range []core.Approach{core.UDI, core.Consolidated} {
			orig, err1 := sys.Run(mode, q)
			got, err2 := restored.Run(mode, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%q/%v: error mismatch %v vs %v", qs, mode, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if len(orig.Ranked) != len(got.Ranked) {
				t.Fatalf("%q/%v: %d vs %d answers", qs, mode, len(orig.Ranked), len(got.Ranked))
			}
			om := map[string]float64{}
			for _, a := range orig.Ranked {
				om[strings.Join(a.Values, "\x1f")] = a.Prob
			}
			for _, a := range got.Ranked {
				p, ok := om[strings.Join(a.Values, "\x1f")]
				if !ok || math.Abs(p-a.Prob) > 1e-12 {
					t.Errorf("%q/%v: answer %v prob %.15g vs %.15g", qs, mode, a.Values, a.Prob, p)
				}
			}
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(`{"version": 999}`))
	gz.Close()
	if _, err := Load(&buf, core.Config{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version accepted: %v", err)
	}
}

func TestLoadRejectsCorruptGroup(t *testing.T) {
	_, sys := buildSystem(t)
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	// Decompress, corrupt a probability, recompress.
	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(gz); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(raw.String(), `"probs":[`, `"probs":[42,`, 1)
	if corrupted == raw.String() {
		t.Skip("no probs array found to corrupt")
	}
	var out bytes.Buffer
	w := gzip.NewWriter(&out)
	w.Write([]byte(corrupted))
	w.Close()
	if _, err := Load(&out, core.Config{}); err == nil {
		t.Error("corrupted snapshot accepted")
	}
}

// TestValidateGroupRefusesDamage: every damage the validator names is
// refused — a NaN probability included, which the comparisons the check
// is built from would otherwise let through (NaN compares false both
// ways, so NaN also passes a sum test written as two "out of range"
// comparisons).
func TestValidateGroupRefusesDamage(t *testing.T) {
	ok := func() pmapping.Group {
		return pmapping.Group{
			Corrs:    []pmapping.Corr{{SrcAttr: "a", MedIdx: 0, Weight: 0.5}, {SrcAttr: "a", MedIdx: 1, Weight: 0.5}},
			Mappings: [][]int{{}, {0}, {1}},
			Probs:    []float64{0, 0.5, 0.5},
		}
	}
	if err := ValidateGroup(ok(), 2); err != nil {
		t.Fatalf("a sound group refused: %v", err)
	}
	for what, damage := range map[string]func(*pmapping.Group){
		"NaN probability":         func(g *pmapping.Group) { g.Probs[1] = math.NaN() },
		"all probabilities NaN":   func(g *pmapping.Group) { g.Probs = []float64{math.NaN(), math.NaN(), math.NaN()} },
		"negative probability":    func(g *pmapping.Group) { g.Probs = []float64{-0.5, 1, 0.5} },
		"probabilities not one":   func(g *pmapping.Group) { g.Probs[1] = 0.25 },
		"mapping count":           func(g *pmapping.Group) { g.Mappings = g.Mappings[:2] },
		"correspondence too high": func(g *pmapping.Group) { g.Mappings[2] = []int{2} },
		"correspondence negative": func(g *pmapping.Group) { g.Mappings[2] = []int{-1} },
		"mediated attribute":      func(g *pmapping.Group) { g.Corrs[1].MedIdx = 2 },
		"negative mediated index": func(g *pmapping.Group) { g.Corrs[0].MedIdx = -1 },
	} {
		g := ok()
		damage(&g)
		if err := ValidateGroup(g, 2); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	spec := datagen.People(103)
	spec.NumSources = 25
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, sys); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 256 {
		return 0, errWriteFailed
	}
	return len(p), nil
}

var errWriteFailed = errors.New("disk full")

func TestSaveWriteError(t *testing.T) {
	_, sys := buildSystem(t)
	if err := Save(&failingWriter{}, sys); err == nil {
		t.Error("write failure not propagated")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	_, sys := buildSystem(t)
	if err := SaveFile("/nonexistent-dir-xyz/s.gz", sys); err == nil {
		t.Error("unwritable path accepted")
	}
	if _, err := LoadFile("/nonexistent-dir-xyz/s.gz", core.Config{}); err == nil {
		t.Error("missing file accepted")
	}
}
