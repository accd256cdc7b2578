package answer

import (
	"reflect"
	"testing"
)

// Regression for the ranking tiebreak: equal-probability answers must
// rank in one pinned total order — probability descending, then tuple
// key ascending — no matter how the tuples arrived. Before this was
// pinned, the order among ties depended on accumulation order, which
// differs between a single engine and a scatter-gather merge.
func TestSelectTopKDeterministicUnderTies(t *testing.T) {
	tuples := []rankedTuple{
		{key: "zeta", prob: 0.4},
		{key: "alpha", prob: 0.4},
		{key: "mid", prob: 0.7},
		{key: "beta", prob: 0.4},
	}
	got := selectTopK(append([]rankedTuple(nil), tuples...), 0)
	wantKeys := []string{"mid", "alpha", "beta", "zeta"}
	for i, w := range wantKeys {
		if got[i].Values[0] != w {
			t.Fatalf("rank %d = %q, want %q (full: %+v)", i, got[i].Values[0], w, got)
		}
	}
	// The bounded-heap path must agree with the full sort's prefix.
	top2 := selectTopK(append([]rankedTuple(nil), tuples...), 2)
	if len(top2) != 2 || top2[0].Values[0] != "mid" || top2[1].Values[0] != "alpha" {
		t.Fatalf("top-2 = %+v, want [mid alpha]", top2)
	}
}

// Merging partitions that contribute duplicate-probability tuples must
// produce the identical ranking regardless of which partition each tuple
// came from and of the parts' order — the property the sharded
// scatter-gather path depends on.
func TestMergeResultSetsDuplicateProbabilities(t *testing.T) {
	partA := withRuns(&ResultSet{
		Instances: []Instance{
			{Source: "s1", Row: 0, Values: []string{"beta"}, Prob: 0.4},
			{Source: "s1", Row: 1, Values: []string{"zeta"}, Prob: 0.4},
		},
	}, sourceProbs{source: "s1", probs: map[string]float64{"beta": 0.4, "zeta": 0.4}})
	partB := withRuns(&ResultSet{
		Instances: []Instance{
			{Source: "s2", Row: 0, Values: []string{"alpha"}, Prob: 0.4},
		},
	}, sourceProbs{source: "s2", probs: map[string]float64{"alpha": 0.4}})
	order := []string{"s1", "s2"}

	merged := MergeResultSets(order, []*ResultSet{partA, partB})
	wantKeys := []string{"alpha", "beta", "zeta"} // all at 0.4: key ascending
	if len(merged.Ranked) != len(wantKeys) {
		t.Fatalf("%d ranked answers, want %d", len(merged.Ranked), len(wantKeys))
	}
	for i, w := range wantKeys {
		if merged.Ranked[i].Values[0] != w || merged.Ranked[i].Prob != 0.4 {
			t.Fatalf("rank %d = %+v, want {%s 0.4}", i, merged.Ranked[i], w)
		}
	}

	// Part order must not matter (a fan-out gathers in arbitrary order).
	swapped := MergeResultSets(order, []*ResultSet{partB, partA})
	if !reflect.DeepEqual(merged, swapped) {
		t.Fatalf("merge depends on part order:\n%+v\nvs\n%+v", merged, swapped)
	}

	// And nil parts (an empty shard) are exact no-ops.
	withNil := MergeResultSets(order, []*ResultSet{nil, partA, nil, partB})
	if !reflect.DeepEqual(merged, withNil) {
		t.Fatalf("nil parts changed the merge:\n%+v\nvs\n%+v", merged, withNil)
	}
}

// A tuple appearing in several sources must recombine through the
// cross-source disjunction in global source order when merged, exactly
// like the single accumulator.
func TestMergeResultSetsCrossSourceDisjunction(t *testing.T) {
	partA := withRuns(&ResultSet{
		Instances: []Instance{{Source: "s1", Row: 0, Values: []string{"x"}, Prob: 0.5}},
	}, sourceProbs{source: "s1", probs: map[string]float64{"x": 0.5}})
	partB := withRuns(&ResultSet{
		Instances: []Instance{{Source: "s2", Row: 3, Values: []string{"x"}, Prob: 0.25}},
	}, sourceProbs{source: "s2", probs: map[string]float64{"x": 0.25}})
	merged := MergeResultSets([]string{"s1", "s2"}, []*ResultSet{partA, partB})
	want := 1 - (1-0.5)*(1-0.25)
	if len(merged.Ranked) != 1 || merged.Ranked[0].Prob != want {
		t.Fatalf("merged = %+v, want single answer with prob %v", merged.Ranked, want)
	}
	// Instances sort by (source, row, values).
	if merged.Instances[0].Source != "s1" || merged.Instances[1].Source != "s2" {
		t.Fatalf("instances out of order: %+v", merged.Instances)
	}
}
