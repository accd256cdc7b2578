package answer

import "sort"

// Rank sets rs.Ranked from rs.PerSource and returns rs. It is the one
// place the by-table cross-source combine (Definition 3.3) is computed:
// every distinct tuple's probability is p = 1 − Π_s(1 − min(p_s, 1)),
// clamping a source's probability at 1 (within a source the same tuple may
// occur in several rows; by-table set semantics caps it). The product
// takes the sources in rs.PerSource order, walking each source's map once
// and multiplying into a per-tuple product; a source that did not produce
// the tuple would contribute the exact factor 1.0 and is skipped. IEEE
// multiplication is not associative, so the probabilities are a function
// of the PerSource order — every caller passes it in global corpus order.
//
// The ranking applies the one pinned total order every ranking in this
// package shares (probability descending, tuple key ascending), so it
// does not depend on map iteration order.
func Rank(rs *ResultSet) *ResultSet {
	var idx map[string]int
	if len(rs.PerSource) > 0 {
		idx = make(map[string]int, len(rs.PerSource[0].Probs))
	}
	var tuples []rankedTuple // prob holds Π(1 − p_s) until the last loop
	for _, sp := range rs.PerSource {
		for tk, p := range sp.Probs {
			i, ok := idx[tk]
			if !ok {
				i = len(tuples)
				idx[tk] = i
				tuples = append(tuples, rankedTuple{key: tk, prob: 1})
			}
			tuples[i].prob *= 1 - min(p, 1)
		}
	}
	for i := range tuples {
		tuples[i].prob = 1 - tuples[i].prob
	}
	rs.Ranked = selectTopK(tuples, 0)
	return rs
}

// MergeResultSets gathers the parts of one query run against disjoint
// slices of a corpus into the part the single engine would produce over
// the whole corpus, and ranks it. sourceOrder is the global corpus source
// order: the merged PerSource follows it, which is Rank's contract for
// probabilities bit-identical to the single engine's, not merely close.
// Each source's occurrence count travels in its PerSource entry, so the
// merged Occurrences is the whole corpus's. Instances, when the parts
// list them, sort by (source, row, values), the single-engine order.
//
// Nil entries in parts are skipped, so a caller may pass a sparse slice.
func MergeResultSets(sourceOrder []string, parts []*ResultSet) *ResultSet {
	rs := &ResultSet{}
	bySource := make(map[string]SourceTupleProbs)
	for _, p := range parts {
		if p == nil {
			continue
		}
		rs.Instances = append(rs.Instances, p.Instances...)
		for _, sp := range p.PerSource {
			bySource[sp.Source] = sp
		}
	}
	sortInstances(rs.Instances)
	for _, name := range sourceOrder {
		if sp, ok := bySource[name]; ok {
			rs.PerSource = append(rs.PerSource, sp)
		}
	}
	return Rank(rs)
}

// sortInstances orders instances by (source, row, values) — the order a
// scan's part and a merge both publish.
func sortInstances(instances []Instance) {
	sort.SliceStable(instances, func(i, j int) bool {
		if instances[i].Source != instances[j].Source {
			return instances[i].Source < instances[j].Source
		}
		if instances[i].Row != instances[j].Row {
			return instances[i].Row < instances[j].Row
		}
		return tupleKey(instances[i].Values) < tupleKey(instances[j].Values)
	})
}
