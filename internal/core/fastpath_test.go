package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
)

// twinSystem builds a system over a corpus where several sources share
// the exact attribute set (the shape the dedup caches exploit).
func twinSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	attrs := [][]string{
		{"name", "phone", "address"},
		{"name", "phone", "address"},
		{"name", "phone", "address"},
		{"name", "phones"},
		{"phones", "address"},
	}
	sources := make([]*schema.Source, len(attrs))
	for i, a := range attrs {
		row := make([]string, len(a))
		for j := range row {
			row[j] = fmt.Sprintf("v%d%d", i, j)
		}
		sources[i] = schema.MustNewSource(fmt.Sprintf("s%02d", i), a, [][]string{row})
	}
	corpus, err := schema.NewCorpus("twins", sources)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Setup(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDedupCloneIsolation: sources with identical schemas must receive
// pointer-distinct but value-identical p-mappings and consolidated
// p-mappings — shared canonical computation, isolated ownership.
func TestDedupCloneIsolation(t *testing.T) {
	sys := twinSystem(t, Config{Obs: obs.Disabled})
	a, b := sys.Maps["s00"], sys.Maps["s01"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("unexpected p-mapping counts: %d vs %d", len(a), len(b))
	}
	for l := range a {
		if a[l] == b[l] {
			t.Fatalf("schema %d: twin sources share one *PMapping", l)
		}
		if a[l].SourceName != "s00" || b[l].SourceName != "s01" {
			t.Fatalf("schema %d: wrong SourceName %q / %q", l, a[l].SourceName, b[l].SourceName)
		}
		// Value-identical apart from the owner name.
		ca := a[l].Clone()
		ca.SourceName = b[l].SourceName
		if !reflect.DeepEqual(ca, b[l]) {
			t.Fatalf("schema %d: twin p-mappings differ in value", l)
		}
		// Groups must not alias: probability slices are conditioned in
		// place by feedback.
		if len(a[l].Groups) > 0 && len(a[l].Groups[0].Probs) > 0 &&
			&a[l].Groups[0].Probs[0] == &b[l].Groups[0].Probs[0] {
			t.Fatalf("schema %d: twin p-mappings alias the same Probs slice", l)
		}
	}
	ca, cb := sys.Snapshot().ConsMaps()["s00"], sys.Snapshot().ConsMaps()["s01"]
	if ca == nil || cb == nil {
		t.Fatal("missing consolidated p-mappings for twins")
	}
	if ca == cb {
		t.Fatal("twin sources share one consolidated *PMapping")
	}
	cc := ca.Clone()
	cc.SourceName = cb.SourceName
	if !reflect.DeepEqual(cc, cb) {
		t.Fatal("twin consolidated p-mappings differ in value")
	}
}

// TestFeedbackDoesNotLeakAcrossTwins: conditioning one twin's p-mapping
// must leave the other twin bit-identical to its pre-feedback state.
func TestFeedbackDoesNotLeakAcrossTwins(t *testing.T) {
	sys := twinSystem(t, Config{Obs: obs.Disabled})
	before := make([]*pmapping.PMapping, len(sys.Maps["s01"]))
	for l, pm := range sys.Maps["s01"] {
		before[l] = pm.Clone()
	}
	consBefore := sys.Snapshot().ConsMaps()["s01"].Clone()

	// Condition every correspondence of s00 in every schema.
	for l, pm := range sys.Maps["s00"] {
		for _, g := range pm.Groups {
			for _, c := range g.Corrs {
				if err := sys.SubmitFeedback(Feedback{Source: "s00", SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: true}); err != nil {
					t.Fatalf("feedback: %v", err)
				}
			}
		}
	}

	for l, pm := range sys.Maps["s01"] {
		if !reflect.DeepEqual(before[l], pm) {
			t.Fatalf("schema %d: feedback on s00 mutated s01's p-mapping", l)
		}
	}
	if !reflect.DeepEqual(consBefore, sys.Snapshot().ConsMaps()["s01"]) {
		t.Fatal("feedback on s00 mutated s01's consolidated p-mapping")
	}
}

// TestConcurrentAttrSimDuringAdds races matrix-backed similarity reads
// against incremental vocabulary extensions; run under -race this pins
// the lock-free snapshot publication at the System level.
func TestConcurrentAttrSimDuringAdds(t *testing.T) {
	sys := twinSystem(t, Config{Obs: obs.Disabled})
	// The matrix-backed sim function is safe without any lock: Extend
	// publishes enlarged snapshots atomically.
	sim := sys.AttrSim()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			names := []string{"name", "phone", "phones", "address", "zz-unknown"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := names[i%len(names)], names[(i/2)%len(names)]
				if v := sim(a, b); v < 0 || v > 1 {
					t.Errorf("sim(%q,%q) = %v out of range", a, b, v)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		src := schema.MustNewSource(fmt.Sprintf("n%02d", i),
			[]string{"name", fmt.Sprintf("extra%d", i)}, [][]string{{"a", "b"}})
		if _, err := sys.AddSources([]*schema.Source{src}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScopedInvalidationNoTwinLeak is the dedup-cache leak regression
// for feedback: feedback conditions s00's schema-0 p-mapping — a clone,
// never the canonical value — so the cache needs no invalidation, and a
// twin source added afterwards is served from it with no fresh miss and
// must come out exactly as clean as a pre-feedback twin. A conditioned
// value leaking into a canonical entry shows up as s99 differing from
// s01.
func TestScopedInvalidationNoTwinLeak(t *testing.T) {
	reg := obs.NewRegistry()
	sys := twinSystem(t, Config{Obs: reg})
	pm := sys.Maps["s00"][0]
	if len(pm.Groups) == 0 || len(pm.Groups[0].Corrs) == 0 {
		t.Skip("no correspondences to condition")
	}
	c := pm.Groups[0].Corrs[0]
	if err := sys.SubmitFeedback(Feedback{Source: "s00", SchemaIdx: 0, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: true}); err != nil {
		t.Fatal(err)
	}
	// s00 conditioned, s01 untouched: the feedback must have changed
	// something, or the leak check below proves nothing.
	same := true
	ca := sys.Maps["s00"][0].Clone()
	ca.SourceName = "s01"
	if !reflect.DeepEqual(ca, sys.Maps["s01"][0]) {
		same = false
	}
	if same {
		t.Fatal("feedback left s00's schema-0 p-mapping unchanged")
	}

	missesBefore := reg.Counter("setup.pmap_dedup.misses").Value()
	src := schema.MustNewSource("s99", []string{"name", "phone", "address"},
		[][]string{{"x", "y", "z"}})
	if _, err := sys.AddSources([]*schema.Source{src}); err != nil {
		t.Fatal(err)
	}
	// Every (attr set, schema) entry survived the feedback: no fresh miss.
	if got := reg.Counter("setup.pmap_dedup.misses").Value(); got != missesBefore {
		t.Fatalf("pmap_dedup.misses = %d after the twin add, want %d (every entry served)", got, missesBefore)
	}
	a, b := sys.Maps["s99"], sys.Maps["s01"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("unexpected p-mapping counts: %d vs %d", len(a), len(b))
	}
	for l := range a {
		got := a[l].Clone()
		got.SourceName = "s01"
		if !reflect.DeepEqual(got, b[l]) {
			t.Fatalf("schema %d: twin added after scoped feedback differs from clean twin", l)
		}
	}
	gc := sys.Snapshot().ConsMaps()["s99"].Clone()
	gc.SourceName = "s01"
	if !reflect.DeepEqual(gc, sys.Snapshot().ConsMaps()["s01"]) {
		t.Fatal("twin consolidated p-mapping differs from clean twin after scoped feedback")
	}
}
