package answer

import "sort"

// Rank sets rs.Ranked from rs.PerSource and returns rs. It is the one
// place the by-table cross-source combine (Definition 3.3) is computed:
// every distinct tuple's probability is p = 1 − Π_s(1 − min(p_s, 1)),
// clamping a source's probability at 1 (within a source the same tuple may
// occur in several rows; by-table set semantics caps it). The product
// takes the sources in rs.PerSource order, walking each source's run once
// and multiplying into a dense per-tuple product indexed by tuple id; a
// source that did not produce the tuple would contribute the exact factor
// 1.0 and is skipped. IEEE multiplication is not associative, so the
// probabilities are a function of the PerSource order — every caller
// passes it in global corpus order. A table tuple no run names is not an
// answer.
//
// The ranking applies the one pinned total order every ranking in this
// package shares (probability descending, tuple key ascending), so it
// does not depend on the table's order.
func Rank(rs *ResultSet) *ResultSet {
	at := make([]int32, len(rs.Tuples))              // 1 + the tuple's index in tuples, 0 until named
	tuples := make([]rankedTuple, 0, len(rs.Tuples)) // prob holds Π(1 − p_s) until the last loop
	for _, sp := range rs.PerSource {
		for i, id := range sp.IDs {
			j := at[id]
			if j == 0 {
				tuples = append(tuples, rankedTuple{key: rs.Tuples[id].Key, prob: 1})
				j = int32(len(tuples))
				at[id] = j
			}
			tuples[j-1].prob *= 1 - min(sp.Probs[i], 1)
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
// The runs are renumbered into one tuple table with one lookup per part
// tuple (see tableMerge), so the merged table and ids are the single
// engine's whatever order the parts come in. Each source's occurrence
// count travels in its PerSource entry, so the merged Occurrences is the
// whole corpus's. Instances, when the parts list them, sort by (source,
// row, values), the single-engine order.
//
// Nil entries in parts are skipped, so a caller may pass a sparse slice.
func MergeResultSets(sourceOrder []string, parts []*ResultSet) *ResultSet {
	type located struct{ part, i int }
	rs := &ResultSet{}
	partID := make([][]int32, len(parts))
	// The merged table lists at least the largest part's tuples; shards
	// of one corpus mostly share theirs.
	tables, distinct, sources, entries := 0, 0, 0, 0
	for pi, p := range parts {
		if p == nil {
			continue
		}
		rs.Instances = append(rs.Instances, p.Instances...)
		partID[pi] = make([]int32, len(p.Tuples))
		tables++
		distinct = max(distinct, len(p.Tuples))
		sources += len(p.PerSource)
	}
	bySource := make(map[string]located, sources)
	for pi, p := range parts {
		if p == nil {
			continue
		}
		for i, sp := range p.PerSource {
			bySource[sp.Source] = located{pi, i}
			entries += len(sp.IDs)
		}
	}
	sortInstances(rs.Instances)
	m := newTableMerge(tables, distinct)
	ids := make([]int32, 0, entries)
	rs.PerSource = make([]SourceTupleProbs, 0, len(bySource))
	for _, name := range sourceOrder {
		at, ok := bySource[name]
		if !ok {
			continue
		}
		sp := parts[at.part].PerSource[at.i]
		lo := len(ids)
		ids = m.renumber(ids, sp.IDs, parts[at.part].Tuples, partID[at.part])
		sp.IDs = ids[lo:len(ids):len(ids)]
		rs.PerSource = append(rs.PerSource, sp)
	}
	rs.Tuples = m.tuples
	return Rank(rs)
}

// tableMerge renumbers runs over several local tuple tables — a scan's
// workers', or a merge's parts' — into one table that lists each key
// once, in the order the runs, taken in source order, first name it.
// Each local table maps to the merged one through a slice (1 + the
// merged id, 0 until the tuple is first named), so a key is looked up
// once per local tuple, never per run entry, and not at all when there
// is one local table.
type tableMerge struct {
	tuples []Tuple
	byKey  map[string]int32 // nil for one local table
}

func newTableMerge(tables, distinct int) *tableMerge {
	m := &tableMerge{tuples: make([]Tuple, 0, distinct)}
	if tables > 1 {
		m.byKey = make(map[string]int32, distinct)
	}
	return m
}

// renumber appends to dst the merged ids of ids, a run over local whose
// mapping so far is local2merged. dst may share ids' array at the same
// start: each id is read before its slot is written.
func (m *tableMerge) renumber(dst, ids []int32, local []Tuple, local2merged []int32) []int32 {
	for _, t := range ids {
		id := local2merged[t] - 1
		if id < 0 {
			tu := local[t]
			var ok bool
			if id, ok = m.byKey[tu.Key]; !ok {
				id = int32(len(m.tuples))
				m.tuples = append(m.tuples, tu)
				if m.byKey != nil {
					m.byKey[tu.Key] = id
				}
			}
			local2merged[t] = id + 1
		}
		dst = append(dst, id)
	}
	return dst
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
