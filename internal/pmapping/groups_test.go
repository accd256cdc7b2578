package pmapping

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"udi/internal/schema"
)

// splitGroupsStringKeyed is the string-keyed union-find splitGroups ran
// before it moved to dense integer vertices; the dense version must
// reproduce its output exactly, canonical order included.
func splitGroupsStringKeyed(corrs []Corr) [][]Corr {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	srcKey := func(a string) string { return "s\x00" + a }
	medKey := func(j int) string { return fmt.Sprintf("m\x00%d", j) }
	for _, c := range corrs {
		union(srcKey(c.SrcAttr), medKey(c.MedIdx))
	}
	byRoot := make(map[string][]Corr)
	var roots []string
	for _, c := range corrs {
		r := find(srcKey(c.SrcAttr))
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], c)
	}
	out := make([][]Corr, 0, len(roots))
	for _, r := range roots {
		g := byRoot[r]
		sort.Slice(g, func(i, j int) bool {
			if g[i].SrcAttr != g[j].SrcAttr {
				return g[i].SrcAttr < g[j].SrcAttr
			}
			return g[i].MedIdx < g[j].MedIdx
		})
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i][0], out[j][0]
		if a.SrcAttr != b.SrcAttr {
			return a.SrcAttr < b.SrcAttr
		}
		return a.MedIdx < b.MedIdx
	})
	return out
}

// enumerateMatchingsMapped is enumerateMatchings as it was before it
// marked used attributes in a slice: the same search over maps.
func enumerateMatchingsMapped(corrs []Corr, cap int) [][]int {
	var out [][]int
	var cur []int
	usedSrc := make(map[string]bool)
	usedMed := make(map[int]bool)
	overflow := false
	var rec func(start int)
	rec = func(start int) {
		if overflow {
			return
		}
		m := make([]int, len(cur))
		copy(m, cur)
		out = append(out, m)
		if len(out) > cap {
			overflow = true
			return
		}
		for i := start; i < len(corrs); i++ {
			c := corrs[i]
			if usedSrc[c.SrcAttr] || usedMed[c.MedIdx] {
				continue
			}
			usedSrc[c.SrcAttr], usedMed[c.MedIdx] = true, true
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			usedSrc[c.SrcAttr], usedMed[c.MedIdx] = false, false
		}
	}
	rec(0)
	if overflow {
		return nil
	}
	return out
}

// checkAgainstStringKeyed fails unless splitGroups and enumerateMatchings
// agree with their map-based predecessors on corrs, bit for bit.
func checkAgainstStringKeyed(t *testing.T, corrs []Corr) {
	t.Helper()
	in := append([]Corr(nil), corrs...)
	got := splitGroups(append([]Corr(nil), corrs...))
	want := splitGroupsStringKeyed(append([]Corr(nil), corrs...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitGroups(%v)\n = %v\nwant %v", in, got, want)
	}
	for i, g := range got {
		for k, c := range g {
			if math.Float64bits(c.Weight) != math.Float64bits(want[i][k].Weight) {
				t.Fatalf("splitGroups(%v): group %d corr %d weight bits differ", in, i, k)
			}
		}
		if got, want := enumerateMatchings(g, 64), enumerateMatchingsMapped(g, 64); !reflect.DeepEqual(got, want) {
			t.Fatalf("enumerateMatchings(%v)\n = %v\nwant %v", g, got, want)
		}
	}
}

// TestSplitGroupsMatchesStringKeyed is the property test for the dense
// union-find: random correspondence sets — duplicate source attributes,
// mediated indices up to 1000, duplicate (attr, index) pairs with
// different weights — plus the empty and one-element sets.
func TestSplitGroupsMatchesStringKeyed(t *testing.T) {
	checkAgainstStringKeyed(t, nil)
	checkAgainstStringKeyed(t, []Corr{})
	checkAgainstStringKeyed(t, []Corr{{SrcAttr: "a", MedIdx: 1000, Weight: 0.5}})
	checkAgainstStringKeyed(t, []Corr{
		{SrcAttr: "a", MedIdx: 3, Weight: 0.9}, {SrcAttr: "b", MedIdx: 1000, Weight: 0.2},
		{SrcAttr: "a", MedIdx: 3, Weight: 0.9}, {SrcAttr: "a", MedIdx: 1000, Weight: 0.1},
	})
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		// Up to 40 correspondences, so groups outgrow the sort's
		// insertion-sort cutoff with duplicates inside.
		n := rng.Intn(12)
		if trial%3 == 0 {
			n = rng.Intn(41)
		}
		nAttrs := 1 + rng.Intn(6)
		corrs := make([]Corr, n)
		for i := range corrs {
			corrs[i] = Corr{
				SrcAttr: fmt.Sprintf("attr%d", rng.Intn(nAttrs)),
				MedIdx:  rng.Intn(1 + rng.Intn(1001)),
				Weight:  rng.Float64(),
			}
		}
		checkAgainstStringKeyed(t, corrs)
	}
}

// corrsFromBytes decodes fuzz input into a correspondence set of at most
// 64 (a source's set is small; longer inputs only slow the fuzzer), three
// bytes per correspondence: the source attribute from a small alphabet
// (so attributes repeat), a mediated index in [0, 1000], and a weight.
func corrsFromBytes(data []byte) []Corr {
	attrs := []string{"a", "b", "c", "ab", "name", "phone", "", "zz"}
	var corrs []Corr
	for i := 0; i+3 <= len(data) && len(corrs) < 64; i += 3 {
		corrs = append(corrs, Corr{
			SrcAttr: attrs[data[i]%byte(len(attrs))],
			MedIdx:  (int(data[i+1])<<2 | int(data[i+2]>>6)) % 1001,
			Weight:  float64(data[i+2]&63) / 63,
		})
	}
	return corrs
}

// FuzzSplitGroups: on any correspondence set, splitGroups (and the
// matchings enumerated per group) equal the string-keyed reference.
func FuzzSplitGroups(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 250, 0})
	f.Add([]byte{0, 1, 10, 1, 1, 20, 0, 2, 30, 1, 2, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstStringKeyed(t, corrsFromBytes(data))
	})
}

// TestBuildCorrsFromRowsMatchesBuild: a source's AttrCorrs rows joined
// in attribute order, fed to BuildCorrs, give exactly Build's p-mapping —
// duplicate attributes, attributes with no correspondence and every
// aggregate included.
func TestBuildCorrsFromRowsMatchesBuild(t *testing.T) {
	m := med([]string{"phone", "hPhone"}, []string{"oPhone"}, []string{"name"}, []string{"email"})
	sim := tableSim(map[[2]string]float64{
		{"phone", "hPhone"}: 0.9, {"phone", "oPhone"}: 0.88, {"fone", "phone"}: 0.86,
		{"fone", "oPhone"}: 0.95, {"mail", "email"}: 0.87,
	})
	for _, attrs := range [][]string{
		{"phone", "fone", "name", "mail"},
		{"fone", "phone", "phone", "zip"},
		{"zip"},
		{},
	} {
		for _, agg := range []Aggregate{AggSum, AggMax, AggAvg} {
			cfg := Config{Sim: sim, Aggregate: agg}
			src := &schema.Source{Name: "s", Attrs: attrs}
			var raw []Corr
			for _, a := range attrs {
				raw = append(raw, AttrCorrs(a, m, func(j, k int) float64 { return sim(a, m.Attrs[j][k]) }, cfg)...)
			}
			got, err := BuildCorrs("s", m, raw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(src, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("attrs %v agg %d: BuildCorrs over rows\n%+v\nBuild\n%+v", attrs, agg, got, want)
			}
		}
	}
}
