package answer

import (
	"container/heap"
	"sort"
	"strings"
)

// Top-k selection over ranked answers. The full ranking sorts every
// distinct tuple (O(n log n)); a serving deployment usually wants only
// the k best, which a bounded min-heap selects in O(n log k). Both paths
// order answers identically — probability descending, tuple key ascending
// as the tie-break — so TopK results are byte-identical prefixes of the
// full ranking (the differential harness checks this).

// rankedTuple pairs a tuple key with its combined probability.
type rankedTuple struct {
	key  string
	prob float64
}

// worseThan reports whether a ranks strictly below b (lower probability,
// or equal probability and greater key).
func (a rankedTuple) worseThan(b rankedTuple) bool {
	if a.prob != b.prob {
		return a.prob < b.prob
	}
	return a.key > b.key
}

// tupleMinHeap is a min-heap whose root is the worst kept tuple.
type tupleMinHeap []rankedTuple

func (h tupleMinHeap) Len() int           { return len(h) }
func (h tupleMinHeap) Less(i, j int) bool { return h[i].worseThan(h[j]) }
func (h tupleMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tupleMinHeap) Push(x any)        { *h = append(*h, x.(rankedTuple)) }
func (h *tupleMinHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// selectTopK returns the k best tuples in ranking order. k <= 0 or
// k >= len means all: a plain sort. Otherwise a bounded min-heap keeps
// the k best seen so far; its root is the current cutoff.
func selectTopK(tuples []rankedTuple, k int) []Answer {
	if k <= 0 || k >= len(tuples) {
		sort.Slice(tuples, func(i, j int) bool { return tuples[j].worseThan(tuples[i]) })
		return tuplesToAnswers(tuples)
	}
	h := make(tupleMinHeap, 0, k+1)
	for _, t := range tuples {
		if len(h) < k {
			heap.Push(&h, t)
		} else if h[0].worseThan(t) {
			h[0] = t
			heap.Fix(&h, 0)
		}
	}
	out := make([]rankedTuple, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(rankedTuple)
	}
	return tuplesToAnswers(out)
}

func tuplesToAnswers(tuples []rankedTuple) []Answer {
	out := make([]Answer, 0, len(tuples))
	for _, t := range tuples {
		out = append(out, Answer{Values: strings.Split(t.key, "\x1f"), Prob: t.prob})
	}
	return out
}

// TopK returns the k highest-ranked by-table answers (all of them when
// k <= 0). Ranked is already sorted, so this is a copy of its prefix; it
// exists so callers can express a limit without slicing conventions.
func (rs *ResultSet) TopK(k int) []Answer {
	ranked := rs.Ranked
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	out := make([]Answer, len(ranked))
	copy(out, ranked)
	return out
}

// ByTupleRankingTopK is ByTupleRanking bounded to the k best answers
// (k <= 0 means all). The by-tuple probabilities are computed for every
// distinct tuple either way; only the sort is bounded.
func (rs *ResultSet) ByTupleRankingTopK(k int) []Answer {
	return selectTopK(rs.byTupleProbs(), k)
}

// byTupleProbs accumulates the by-tuple probability of every distinct
// tuple: p(t) = 1 − Π_{(source,row)} (1 − p_{row,t}).
func (rs *ResultSet) byTupleProbs() []rankedTuple {
	probs := make(map[string]float64)
	var order []string
	for _, inst := range rs.Instances {
		tk := tupleKey(inst.Values)
		if _, ok := probs[tk]; !ok {
			probs[tk] = 1
			order = append(order, tk)
		}
		p := inst.Prob
		if p > 1 {
			p = 1
		}
		probs[tk] *= 1 - p
	}
	out := make([]rankedTuple, 0, len(order))
	for _, tk := range order {
		out = append(out, rankedTuple{key: tk, prob: 1 - probs[tk]})
	}
	return out
}
