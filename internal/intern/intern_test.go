package intern

import (
	"fmt"
	"testing"

	"udi/internal/datagen"
	"udi/internal/mediate"
	"udi/internal/strutil"
)

func TestVocabDenseIDs(t *testing.T) {
	v := NewVocab([]string{"b", "a", "b", "c", "a"})
	if v.Len() != 3 {
		t.Fatalf("len = %d, want 3 (duplicates dropped)", v.Len())
	}
	for want, name := range []string{"b", "a", "c"} {
		id, ok := v.ID(name)
		if !ok || id != want {
			t.Errorf("ID(%q) = %d,%v want %d,true", name, id, ok, want)
		}
		if v.Name(id) != name {
			t.Errorf("Name(%d) = %q, want %q", id, v.Name(id), name)
		}
	}
	if _, ok := v.ID("zzz"); ok {
		t.Error("unknown name reported as interned")
	}
}

func TestMatrixFallbackForUnknownNames(t *testing.T) {
	calls := 0
	base := func(a, b string) float64 { calls++; return strutil.AttrSim(a, b) }
	m := BuildSparse([]string{"alpha", "bravo"}, base, SparseOptions{Hubs: []string{"alpha"}})
	built := calls

	if got, want := m.Sim("alpha", "bravo"), strutil.AttrSim("alpha", "bravo"); got != want {
		t.Fatalf("interned pair = %v, want %v", got, want)
	}
	if calls != built {
		t.Fatalf("interned lookup hit the base function (%d extra calls)", calls-built)
	}
	if got, want := m.Sim("alpha", "gamma"), strutil.AttrSim("alpha", "gamma"); got != want {
		t.Fatalf("fallback pair = %v, want %v", got, want)
	}
	if calls != built+1 {
		t.Fatalf("fallback made %d base calls, want 1", calls-built)
	}
}

// TestExtend checks that extension preserves old entries bit-for-bit
// (copied, not recomputed), computes every new cross pair, assigns
// deterministic IDs (new names sorted), and ignores already-known names.
func TestExtend(t *testing.T) {
	old := []string{"name", "phone", "email"}
	m := BuildSparse(old, strutil.AttrSim, SparseOptions{Hubs: old[:1], Workers: 2})
	if n := m.Extend([]string{"phone", "email"}, 2); n != 0 {
		t.Fatalf("Extend with known names added %d", n)
	}
	if n := m.Extend([]string{"zip", "address", "zip"}, 2); n != 2 {
		t.Fatalf("Extend added %d, want 2", n)
	}
	all := append(append([]string{}, old...), "address", "zip") // new names sorted after old
	for i, name := range all {
		id, ok := m.Vocab().ID(name)
		if !ok || id != i {
			t.Fatalf("after extend, ID(%q) = %d,%v want %d,true", name, id, ok, i)
		}
	}
	for _, a := range all {
		for _, b := range all {
			if got, want := m.Sim(a, b), strutil.AttrSim(a, b); got != want {
				t.Fatalf("after extend Sim(%q,%q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func BenchmarkMatrixSim(b *testing.B) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("attribute_%d", i)
	}
	m := BuildSparse(names, strutil.AttrSim, SparseOptions{Hubs: names[:8], Workers: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sim(names[i%64], names[(i*7)%64])
	}
}

// BenchmarkBuildSparseScale5k builds the setup matrix over the 5k-source
// scale vocabulary with the frequent attributes as hubs, the way setup
// does: "compiled" passes a nil base (the default matcher on names
// compiled once), "string" passes strutil.AttrSim, which normalizes both
// names on every pair. The two arms produce bit-identical matrices.
func BenchmarkBuildSparseScale5k(b *testing.B) {
	c := datagen.ScaleCorpus(5000, 102)
	names := c.AllAttrs()
	opt := SparseOptions{Hubs: c.FrequentAttrs(mediate.DefaultTheta), Workers: 1}
	for _, arm := range []struct {
		name string
		base func(a, b string) float64
	}{
		{"compiled", nil},
		{"string", strutil.AttrSim},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildSparse(names, arm.base, opt)
			}
		})
	}
}
