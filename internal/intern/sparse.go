package intern

import (
	"sync"

	"udi/internal/obs"
)

// SparseOptions configures BuildSparse.
type SparseOptions struct {
	// Hubs are names whose full similarity rows are precomputed. The
	// setup pipeline passes the corpus's frequent attributes here:
	// attribute matching reads frequent×frequent pairs and p-mapping
	// construction reads source-attr×cluster-member pairs (cluster
	// members are frequent attributes), so hub rows cover every pair the
	// pipeline reads and fallback lookups stay rare. Names not in the
	// vocabulary are ignored.
	Hubs []string
	// Workers bounds build parallelism (≤1 means serial).
	Workers int
	// Obs, when non-nil and enabled, receives the
	// setup.lsh.fallback_lookups counter on every exact-fallback
	// computation.
	Obs *obs.Registry
}

// BuildSparse interns names (duplicates dropped, order preserved) and
// precomputes a candidate-blocked subset of the similarity matrix: full
// rows for opt.Hubs plus LSH band candidate pairs among the remaining
// names (see lsh.go). Lookups outside the precomputed set are computed
// exactly on demand and memoized, so Sim is bit-identical to the base
// function everywhere. base must be symmetric and pure; nil means
// strutil.AttrSim, scored on names compiled once.
func BuildSparse(names []string, base func(a, b string) float64, opt SparseOptions) *Matrix {
	m := &Matrix{base: base, reg: opt.Obs}
	vocab := NewVocab(names)
	n := vocab.Len()
	st := &matrixState{vocab: vocab}

	// Resolve hubs to interned IDs, preserving first-seen order.
	st.hubIdx = make([]int32, n)
	for i := range st.hubIdx {
		st.hubIdx[i] = -1
	}
	for _, h := range opt.Hubs {
		if id, ok := vocab.ID(h); ok && st.hubIdx[id] < 0 {
			st.hubIdx[id] = int32(len(st.hubIDs))
			st.hubIDs = append(st.hubIDs, int32(id))
		}
	}

	// Band every name; same-bucket membership defines candidate pairs.
	st.buckets = make(map[uint64][]int32)
	for i := 0; i < n; i++ {
		for _, bk := range bandKeys(&vocab.compiled[i]) {
			st.buckets[bk] = append(st.buckets[bk], int32(i))
		}
	}
	st.bands = len(st.buckets)

	// Candidate pairs: same-bucket pairs where neither side is a hub
	// (hub rows already cover the rest), plus the non-hub diagonal so
	// Sim(a, a) never falls back. Oversized buckets are skipped — their
	// pairs go through the exact fallback if ever read.
	extraSet := make(map[uint64]struct{})
	for _, members := range st.buckets {
		if len(members) > maxBucketFan {
			continue
		}
		for x := 0; x < len(members); x++ {
			i := int(members[x])
			if st.hubIdx[i] >= 0 {
				continue
			}
			for y := x + 1; y < len(members); y++ {
				j := int(members[y])
				if st.hubIdx[j] >= 0 {
					continue
				}
				extraSet[pairKey(i, j)] = struct{}{}
			}
		}
	}
	for i := 0; i < n; i++ {
		if st.hubIdx[i] < 0 {
			extraSet[pairKey(i, i)] = struct{}{}
		}
	}

	m.fillSparse(st, nil, nil, extraSet, opt.Workers)
	m.state.Store(st)
	return m
}

// fillSparse computes st's hub rows and the extra-pair values for
// extraSet, reusing any value already present in prev or memo (Extend
// and EnsureHubs carry values forward; a fresh build passes nil). Rows
// already present in st.hubRows (carried over by the caller) are kept.
func (m *Matrix) fillSparse(st *matrixState, prev *matrixState, memo *sync.Map, extraSet map[uint64]struct{}, workers int) {
	vocab := st.vocab
	n := vocab.Len()
	if st.hubRows == nil {
		st.hubRows = make([][]float64, len(st.hubIDs))
	}
	// A hub×hub cell appears in both hubs' rows; compute each such pair
	// once up front (serially — the hub set is small) so the parallel row
	// fill only reuses it.
	hubPair := m.hubPairVals(st.hubIDs, vocab, prev, memo)
	runParallel(workers, len(st.hubIDs), func(k int) {
		if st.hubRows[k] != nil {
			return
		}
		id := int(st.hubIDs[k])
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if v, ok := hubPair[pairKey(id, j)]; ok {
				row[j] = v
			} else if v, ok := reuseVal(prev, memo, id, j); ok {
				row[j] = v
			} else {
				row[j] = m.pair(vocab, id, j)
			}
		}
		st.hubRows[k] = row
	})

	keys := make([]uint64, 0, len(extraSet))
	for k := range extraSet {
		keys = append(keys, k)
	}
	vals := make([]float64, len(keys))
	runParallel(workers, len(keys), func(x int) {
		i, j := int(keys[x]>>32), int(keys[x]&0xffffffff)
		if v, ok := reuseVal(prev, memo, i, j); ok {
			vals[x] = v
		} else {
			vals[x] = m.pair(vocab, i, j)
		}
	})
	if st.extra == nil {
		st.extra = make(map[uint64]float64, len(keys))
	}
	for x, k := range keys {
		st.extra[k] = vals[x]
	}
	st.candidates = len(st.hubIDs)*n + len(st.extra)
}

// hubPairVals computes (or reuses) the value of every unordered pair of
// hub IDs whose rows are about to be filled, so the row fill never
// computes the same cell from both sides.
func (m *Matrix) hubPairVals(hubIDs []int32, vocab *Vocab, prev *matrixState, memo *sync.Map) map[uint64]float64 {
	out := make(map[uint64]float64, len(hubIDs)*(len(hubIDs)-1)/2)
	for x := 0; x < len(hubIDs); x++ {
		for y := x + 1; y < len(hubIDs); y++ {
			i, j := int(hubIDs[x]), int(hubIDs[y])
			k := pairKey(i, j)
			if _, ok := out[k]; ok {
				continue
			}
			if v, ok := reuseVal(prev, memo, i, j); ok {
				out[k] = v
			} else {
				out[k] = m.pair(vocab, i, j)
			}
		}
	}
	return out
}

// reuseVal looks a pair's value up in the previous snapshot or the
// fallback memo. IDs are stable across snapshots, so any hit is exactly
// the base value computed earlier.
func reuseVal(prev *matrixState, memo *sync.Map, i, j int) (float64, bool) {
	if prev != nil {
		oldN := prev.vocab.Len()
		if i < oldN && j < oldN {
			if hi := prev.hubIdx[i]; hi >= 0 {
				return prev.hubRows[hi][j], true
			}
			if hj := prev.hubIdx[j]; hj >= 0 {
				return prev.hubRows[hj][i], true
			}
			if v, ok := prev.extra[pairKey(i, j)]; ok {
				return v, true
			}
		}
	}
	if memo != nil {
		if v, ok := memo.Load(pairKey(i, j)); ok {
			return v.(float64), true
		}
	}
	return 0, false
}

// extendSparse builds the enlarged sparse snapshot for Extend: old names
// keep their IDs, bucket membership, hub status, and every computed
// value; only the fresh names (IDs ≥ old vocabulary size) are banded and
// only pairs touching them are computed. Called under extendMu.
func (m *Matrix) extendSparse(old *matrixState, vocab *Vocab, workers int) *matrixState {
	oldN, n := old.vocab.Len(), vocab.Len()
	st := &matrixState{vocab: vocab, buckets: old.buckets}

	st.hubIdx = make([]int32, n)
	copy(st.hubIdx, old.hubIdx)
	for i := oldN; i < n; i++ {
		st.hubIdx[i] = -1
	}
	st.hubIDs = old.hubIDs

	// Band the fresh names into the shared bucket map (buckets are only
	// touched under extendMu; readers never look at them). New candidate
	// pairs are exactly the same-bucket pairs gaining a fresh member —
	// old-pair co-membership is unchanged because band keys depend only
	// on the name.
	extraSet := make(map[uint64]struct{})
	for i := oldN; i < n; i++ {
		for _, bk := range bandKeys(&vocab.compiled[i]) {
			members := st.buckets[bk]
			if len(members) <= maxBucketFan {
				for _, other := range members {
					if st.hubIdx[other] < 0 {
						extraSet[pairKey(int(other), i)] = struct{}{}
					}
				}
			}
			st.buckets[bk] = append(members, int32(i))
		}
		extraSet[pairKey(i, i)] = struct{}{}
	}
	st.bands = len(st.buckets)

	// Hub rows: copy the old columns, compute only the fresh ones.
	st.hubRows = make([][]float64, len(st.hubIDs))
	runParallel(workers, len(st.hubIDs), func(k int) {
		id := int(st.hubIDs[k])
		row := make([]float64, n)
		copy(row, old.hubRows[k])
		for j := oldN; j < n; j++ {
			if v, ok := reuseVal(nil, &m.memo, id, j); ok {
				row[j] = v
			} else {
				row[j] = m.pair(vocab, id, j)
			}
		}
		st.hubRows[k] = row
	})

	st.extra = make(map[uint64]float64, len(old.extra)+len(extraSet))
	for k, v := range old.extra {
		st.extra[k] = v
	}
	keys := make([]uint64, 0, len(extraSet))
	for k := range extraSet {
		keys = append(keys, k)
	}
	vals := make([]float64, len(keys))
	runParallel(workers, len(keys), func(x int) {
		i, j := int(keys[x]>>32), int(keys[x]&0xffffffff)
		if v, ok := reuseVal(nil, &m.memo, i, j); ok {
			vals[x] = v
		} else {
			vals[x] = m.pair(vocab, i, j)
		}
	})
	for x, k := range keys {
		st.extra[k] = vals[x]
	}
	st.candidates = len(st.hubIDs)*n + len(st.extra)
	return st
}

// EnsureHubs promotes any interned, not-yet-hub names in hubs to hub
// status, computing their full rows (reusing every already-known value)
// and atomically publishing the new snapshot. The hub set only grows.
// It returns the number of names promoted.
func (m *Matrix) EnsureHubs(hubs []string, workers int) int {
	m.extendMu.Lock()
	defer m.extendMu.Unlock()
	old := m.state.Load()
	var promote []int32
	seen := map[int32]bool{}
	for _, h := range hubs {
		if id, ok := old.vocab.ID(h); ok && old.hubIdx[id] < 0 && !seen[int32(id)] {
			seen[int32(id)] = true
			promote = append(promote, int32(id))
		}
	}
	if len(promote) == 0 {
		return 0
	}
	n := old.vocab.Len()
	st := &matrixState{
		vocab:   old.vocab,
		buckets: old.buckets,
		bands:   old.bands,
		// extra may now contain pairs covered by the promoted rows; Sim
		// checks hubs first, and the values are identical either way, so
		// the redundant entries are kept rather than copied out.
		extra: old.extra,
	}
	st.hubIdx = make([]int32, n)
	copy(st.hubIdx, old.hubIdx)
	st.hubIDs = append(append([]int32{}, old.hubIDs...), promote...)
	for k := len(old.hubIDs); k < len(st.hubIDs); k++ {
		st.hubIdx[st.hubIDs[k]] = int32(k)
	}
	st.hubRows = make([][]float64, len(st.hubIDs))
	copy(st.hubRows, old.hubRows)
	// Pairs among the newly promoted names appear in both their rows;
	// compute each once (promoted×existing-hub pairs reuse the old rows).
	promoPair := m.hubPairVals(promote, st.vocab, old, &m.memo)
	runParallel(workers, len(promote), func(x int) {
		k := len(old.hubIDs) + x
		id := int(st.hubIDs[k])
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if v, ok := promoPair[pairKey(id, j)]; ok {
				row[j] = v
			} else if v, ok := reuseVal(old, &m.memo, id, j); ok {
				row[j] = v
			} else {
				row[j] = m.pair(st.vocab, id, j)
			}
		}
		st.hubRows[k] = row
	})
	st.candidates = len(st.hubIDs)*n + len(st.extra)
	m.state.Store(st)
	return len(promote)
}
