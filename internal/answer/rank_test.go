package answer

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sourceProbs is one source's by-table tuple probabilities keyed by
// tuple key: the shape the test references build and compare, kept
// independent of the production tuple table and runs.
type sourceProbs struct {
	source      string
	probs       map[string]float64
	occurrences int
}

// withRuns appends sources to rs as tuple-table entries and runs, each
// source's tuples in key order, and returns rs.
func withRuns(rs *ResultSet, sources ...sourceProbs) *ResultSet {
	ids := make(map[string]int32)
	for _, tu := range rs.Tuples {
		ids[tu.Key] = int32(len(ids))
	}
	for _, s := range sources {
		keys := make([]string, 0, len(s.probs))
		for k := range s.probs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sp := SourceTupleProbs{Source: s.source, Occurrences: s.occurrences}
		for _, k := range keys {
			id, ok := ids[k]
			if !ok {
				id = int32(len(rs.Tuples))
				ids[k] = id
				rs.Tuples = append(rs.Tuples, Tuple{Key: k, Values: strings.Split(k, "\x1f")})
			}
			sp.IDs = append(sp.IDs, id)
			sp.Probs = append(sp.Probs, s.probs[k])
		}
		rs.PerSource = append(rs.PerSource, sp)
	}
	return rs
}

// runMaps reads rs's runs back as per-source maps keyed by tuple key.
func runMaps(rs *ResultSet) []sourceProbs {
	out := make([]sourceProbs, len(rs.PerSource))
	for i, sp := range rs.PerSource {
		out[i] = sourceProbs{source: sp.Source, probs: make(map[string]float64, len(sp.IDs)), occurrences: sp.Occurrences}
		for j, id := range sp.IDs {
			out[i].probs[rs.Tuples[id].Key] = sp.Probs[j]
		}
	}
	return out
}

// quadraticRank is the reference for Rank: the cross-source combine as
// first written, kept here independent of the production code. Every
// distinct tuple, in first-seen order, probes every source's map and
// multiplies (1 − min(p, 1)) — an absent source contributing 0 and so the
// factor 1.0 — then the tuples sort under the pinned order (probability
// descending, key ascending).
func quadraticRank(perSource []sourceProbs) []Answer {
	var order []string
	seen := make(map[string]bool)
	for _, sp := range perSource {
		for tk := range sp.probs {
			if !seen[tk] {
				seen[tk] = true
				order = append(order, tk)
			}
		}
	}
	type scored struct {
		key  string
		prob float64
	}
	tuples := make([]scored, 0, len(order))
	for _, tk := range order {
		q := 1.0
		for _, m := range perSource {
			p := m.probs[tk]
			if p > 1 {
				p = 1
			}
			q *= 1 - p
		}
		tuples = append(tuples, scored{tk, 1 - q})
	}
	sort.Slice(tuples, func(i, j int) bool {
		if tuples[i].prob != tuples[j].prob {
			return tuples[i].prob > tuples[j].prob
		}
		return tuples[i].key < tuples[j].key
	})
	out := make([]Answer, len(tuples))
	for i, t := range tuples {
		out[i] = Answer{Values: strings.Split(t.key, "\x1f"), Prob: t.prob}
	}
	return out
}

// rankFuzzKeys are the first tuple keys a generated set uses: the empty
// key and keys holding the value separator must rank and split like any
// other.
var rankFuzzKeys = []string{"", "\x1f", "a\x1fb", "\x1f\x1f", "b"}

// byteStream feeds a generator from fuzz input, yielding 0 once drained.
type byteStream []byte

func (b *byteStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzProb maps one byte to a per-source probability: 0, exactly 1, above
// 1 (Rank clamps it), 0.5 (exact ties across tuples, broken by key), a
// value within three ulps of 0.3 (near-ties), a small fraction, or a plain
// one. Small probabilities keep the product Π(1 − p) near 1, where 1 − Π
// still shows the product's last bits — and so the order its factors were
// multiplied in.
func fuzzProb(c byte) float64 {
	switch c % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 1 + float64(c)/256
	case 3:
		return 0.5
	case 4, 5:
		p := 0.3
		for range int(c>>3) % 4 {
			p = math.Nextafter(p, 1)
		}
		return p
	case 6:
		return float64(c) / (255 * 256)
	}
	return float64(c) / 255
}

// genRankInput builds, from fuzz input, a corpus order, the sources'
// probabilities as maps, the whole part a scan over every source would
// return, and the same sources split across 1, 2, 4 or 8 parts handed to
// the merge in shuffled order.
func genRankInput(data []byte) (order []string, sources []sourceProbs, whole *ResultSet, parts []*ResultSet) {
	in := byteStream(data)
	nSrc := 1 + int(in.next()%9)
	nTup := 1 + int(in.next()%16)
	nParts := []int{1, 2, 4, 8}[in.next()%4]
	keys := make([]string, nTup)
	for j := range keys {
		if j < len(rankFuzzKeys) {
			keys[j] = rankFuzzKeys[j]
		} else {
			keys[j] = fmt.Sprintf("t%d", j)
		}
	}
	whole = &ResultSet{}
	parts = make([]*ResultSet, nParts)
	for i := range parts {
		parts[i] = &ResultSet{}
	}
	for i := range nSrc {
		// Corpus order runs against name order, as it may in a real corpus.
		name := fmt.Sprintf("s%c", 'z'-i)
		order = append(order, name)
		sp := sourceProbs{source: name, probs: make(map[string]float64)}
		var insts []Instance
		for j, tk := range keys {
			c := in.next()
			if c%3 == 0 {
				continue // the tuple is absent from this source
			}
			p := fuzzProb(in.next())
			sp.probs[tk] = p
			insts = append(insts, Instance{Source: name, Row: j, Values: strings.Split(tk, "\x1f"), Prob: p})
			if c&0x40 != 0 { // a second row producing the same tuple
				insts = append(insts, Instance{Source: name, Row: nTup + j, Values: strings.Split(tk, "\x1f"), Prob: p})
			}
		}
		if len(sp.probs) == 0 {
			continue
		}
		sp.occurrences = len(insts)
		sources = append(sources, sp)
		withRuns(whole, sp)
		whole.Instances = append(whole.Instances, insts...)
		part := parts[int(in.next())%nParts]
		withRuns(part, sp)
		part.Instances = append(part.Instances, insts...)
	}
	sortInstances(whole.Instances)
	for i := len(parts) - 1; i > 0; i-- {
		j := int(in.next()) % (i + 1)
		parts[i], parts[j] = parts[j], parts[i]
	}
	return order, sources, whole, parts
}

// sameRanked reports the first difference between two rankings, compared
// bitwise: same values, same probability bits, same order.
func sameRanked(got, want []Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranked answers, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Values, want[i].Values) || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			return fmt.Errorf("rank %d: got %q %v, want %q %v", i, got[i].Values, got[i].Prob, want[i].Values, want[i].Prob)
		}
	}
	return nil
}

// FuzzRankMatchesQuadratic pins the one cross-source combine: Rank's
// linear walk over the per-source runs is bit-identical to the quadratic
// reference over the sources' maps, and a merge of the same sources split across parts, in any
// part order, is bit-identical to ranking the whole part — ranking,
// source order and instances alike.
func FuzzRankMatchesQuadratic(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		order, sources, whole, parts := genRankInput(data)
		want := quadraticRank(sources)
		Rank(whole)
		if err := sameRanked(whole.Ranked, want); err != nil {
			t.Fatalf("Rank vs quadratic reference: %v", err)
		}
		merged := MergeResultSets(order, parts)
		if err := sameRanked(merged.Ranked, whole.Ranked); err != nil {
			t.Fatalf("merge of %d parts vs whole: %v", len(parts), err)
		}
		if len(merged.PerSource) != len(whole.PerSource) {
			t.Fatalf("merge has %d sources, want %d", len(merged.PerSource), len(whole.PerSource))
		}
		for i, sp := range runMaps(merged) {
			if w := sources[i]; sp.source != w.source || sp.occurrences != w.occurrences || !maps.Equal(sp.probs, w.probs) {
				t.Fatalf("merged source %d is %+v, want %+v", i, sp, w)
			}
		}
		if len(merged.Instances) != len(whole.Instances) {
			t.Fatalf("merge has %d instances, want %d", len(merged.Instances), len(whole.Instances))
		}
		for i, w := range whole.Instances {
			g := merged.Instances[i]
			if g.Source != w.Source || g.Row != w.Row || !slices.Equal(g.Values, w.Values) || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
				t.Fatalf("instance %d: got %+v, want %+v", i, g, w)
			}
		}
	})
}
