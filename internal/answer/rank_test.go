package answer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// quadraticRank is the reference for Rank: the cross-source combine as
// first written, kept here independent of the production code. Every
// distinct tuple, in first-seen order, probes every source's map and
// multiplies (1 − min(p, 1)) — an absent source contributing 0 and so the
// factor 1.0 — then the tuples sort under the pinned order (probability
// descending, key ascending).
func quadraticRank(perSource []SourceTupleProbs) []Answer {
	var order []string
	seen := make(map[string]bool)
	for _, sp := range perSource {
		for tk := range sp.Probs {
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
			p := m.Probs[tk]
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

// genRankInput builds, from fuzz input, a corpus order, the whole part a
// scan over every source would return, and the same sources split across
// 1, 2, 4 or 8 parts handed to the merge in shuffled order.
func genRankInput(data []byte) (order []string, whole *ResultSet, parts []*ResultSet) {
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
		sp := SourceTupleProbs{Source: name, Probs: make(map[string]float64)}
		var insts []Instance
		for j, tk := range keys {
			c := in.next()
			if c%3 == 0 {
				continue // the tuple is absent from this source
			}
			p := fuzzProb(in.next())
			sp.Probs[tk] = p
			insts = append(insts, Instance{Source: name, Row: j, Values: strings.Split(tk, "\x1f"), Prob: p})
			if c&0x40 != 0 { // a second row producing the same tuple
				insts = append(insts, Instance{Source: name, Row: nTup + j, Values: strings.Split(tk, "\x1f"), Prob: p})
			}
		}
		if len(sp.Probs) == 0 {
			continue
		}
		whole.PerSource = append(whole.PerSource, sp)
		whole.Instances = append(whole.Instances, insts...)
		part := parts[int(in.next())%nParts]
		part.PerSource = append(part.PerSource, sp)
		part.Instances = append(part.Instances, insts...)
	}
	sortInstances(whole.Instances)
	for i := len(parts) - 1; i > 0; i-- {
		j := int(in.next()) % (i + 1)
		parts[i], parts[j] = parts[j], parts[i]
	}
	return order, whole, parts
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
// linear walk over the per-source maps is bit-identical to the quadratic
// reference, and a merge of the same sources split across parts, in any
// part order, is bit-identical to ranking the whole part — ranking,
// source order and instances alike.
func FuzzRankMatchesQuadratic(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		order, whole, parts := genRankInput(data)
		want := quadraticRank(whole.PerSource)
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
		for i, sp := range whole.PerSource {
			if merged.PerSource[i].Source != sp.Source {
				t.Fatalf("merged source %d is %s, want %s", i, merged.PerSource[i].Source, sp.Source)
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
