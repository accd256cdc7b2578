package pmapping_test

import (
	"fmt"
	"sort"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/pmapping"
)

// mapAssignment is the map-based assignment AssignmentsFor produced
// before it projected onto slices aligned to the requested indices:
// mediated index → source attribute, absent when unmapped.
type mapAssignment struct {
	medToSrc map[int]string
	prob     float64
}

// assignmentsForMaps is that implementation, kept here as the reference:
// a map per mapping's projection, merged by a sorted string key, and a
// map per combined assignment.
func assignmentsForMaps(pm *pmapping.PMapping, medIdxs []int) []mapAssignment {
	want := make(map[int]bool, len(medIdxs))
	for _, j := range medIdxs {
		want[j] = true
	}
	result := []mapAssignment{{medToSrc: map[int]string{}, prob: 1}}
	for _, g := range pm.Groups {
		touches := false
		for _, c := range g.Corrs {
			if want[c.MedIdx] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		type proj struct {
			asgn map[int]string
			prob float64
		}
		merged := map[string]*proj{}
		var order []string
		for k, mapping := range g.Mappings {
			asgn := make(map[int]string)
			for _, ci := range mapping {
				if c := g.Corrs[ci]; want[c.MedIdx] {
					asgn[c.MedIdx] = c.SrcAttr
				}
			}
			idxs := make([]int, 0, len(asgn))
			for j := range asgn {
				idxs = append(idxs, j)
			}
			sort.Ints(idxs)
			key := ""
			for _, j := range idxs {
				key += fmt.Sprintf("%d=%s\x1f", j, asgn[j])
			}
			if p, ok := merged[key]; ok {
				p.prob += g.Probs[k]
				continue
			}
			merged[key] = &proj{asgn: asgn, prob: g.Probs[k]}
			order = append(order, key)
		}
		next := make([]mapAssignment, 0, len(result)*len(order))
		for _, r := range result {
			for _, key := range order {
				p := merged[key]
				if p.prob == 0 {
					continue
				}
				combined := make(map[int]string, len(r.medToSrc)+len(p.asgn))
				for k, v := range r.medToSrc {
					combined[k] = v
				}
				for k, v := range p.asgn {
					combined[k] = v
				}
				next = append(next, mapAssignment{medToSrc: combined, prob: r.prob * p.prob})
			}
		}
		result = next
	}
	return result
}

// subsets lists every subset of {0, …, n-1} with at most k elements, in
// ascending order within each.
func subsets(n, k int) [][]int {
	out := [][]int{{}}
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			return
		}
		for j := start; j < n; j++ {
			next := append(append([]int(nil), cur...), j)
			out = append(out, next)
			rec(j+1, next)
		}
	}
	rec(0, nil)
	return out
}

// TestAssignmentsForMatchesMapReference: over the p-mappings of every
// domain (set up over its first 40 sources) and every subset of at most
// three of its schema's mediated attributes (asked in ascending and in
// reversed order), AssignmentsFor lists the map-based reference's
// assignments in its order, each SrcAttrs slot holding the reference's
// source attribute for that index ("" when unmapped) and each
// probability bit-identical.
func TestAssignmentsForMatchesMapReference(t *testing.T) {
	checked := 0
	for _, d := range datagen.AllDomains() {
		d.NumSources = min(d.NumSources, 40)
		sys, err := core.Setup(datagen.MustGenerate(d).Corpus, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		seen := map[*pmapping.PMapping]bool{}
		for _, src := range sys.Corpus.Sources {
			for l, pm := range sys.Maps[src.Name] {
				if seen[pm] {
					continue
				}
				seen[pm] = true
				for _, asc := range subsets(len(sys.Med.PMed.Schemas[l].Attrs), 3) {
					desc := make([]int, len(asc))
					for i, j := range asc {
						desc[len(asc)-1-i] = j
					}
					for _, idxs := range [][]int{asc, desc} {
						got, want := pm.AssignmentsFor(idxs), assignmentsForMaps(pm, idxs)
						if len(got) != len(want) {
							t.Fatalf("%s %s schema %d %v: %d assignments, reference %d", d.Name, src.Name, l, idxs, len(got), len(want))
						}
						for i, w := range want {
							g := got[i]
							if g.Prob != w.prob || len(g.SrcAttrs) != len(idxs) {
								t.Fatalf("%s %s schema %d %v: assignment %d = %+v, reference %+v", d.Name, src.Name, l, idxs, i, g, w)
							}
							for k, j := range idxs {
								if g.SrcAttrs[k] != w.medToSrc[j] {
									t.Fatalf("%s %s schema %d %v: assignment %d maps %d to %q, reference %q", d.Name, src.Name, l, idxs, i, j, g.SrcAttrs[k], w.medToSrc[j])
								}
							}
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d (p-mapping, attribute list) pairs checked", checked)
}
