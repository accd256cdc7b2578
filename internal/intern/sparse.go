package intern

import (
	"slices"

	"udi/internal/obs"
)

// SparseOptions configures BuildSparse.
type SparseOptions struct {
	// Hubs are names whose full similarity rows are precomputed. The
	// setup pipeline passes the corpus's frequent attributes here:
	// attribute matching reads frequent×frequent pairs and p-mapping
	// construction reads source-attr×cluster-member pairs (cluster
	// members are frequent attributes), so every pair the pipeline reads
	// has a hub side and the exact fallback is never taken on the
	// evaluation corpora. Names not in the vocabulary are ignored.
	Hubs []string
	// Workers bounds build parallelism (≤1 means serial).
	Workers int
	// Obs, when non-nil and enabled, receives the
	// setup.sim_matrix.fallback_lookups counter on every exact-fallback
	// computation.
	Obs *obs.Registry
}

// BuildSparse interns names (duplicates dropped, order preserved) and
// precomputes the full similarity rows of opt.Hubs. Lookups with no hub
// side are computed exactly on demand and memoized, so Sim is
// bit-identical to the base function everywhere. base must be symmetric
// and pure; nil means strutil.AttrSim, scored on names compiled once.
func BuildSparse(names []string, base func(a, b string) float64, opt SparseOptions) *Matrix {
	m := &Matrix{base: base, reg: opt.Obs}
	vocab := NewVocab(names)
	st := &matrixState{vocab: vocab, hubIdx: make([]int32, vocab.Len())}
	for i := range st.hubIdx {
		st.hubIdx[i] = -1
	}
	m.state.Store(m.withHubs(st, st.newHubs(opt.Hubs), opt.Workers))
	return m
}

// newHubs resolves names to the interned IDs that are not yet hubs,
// distinct and in first-seen order.
func (st *matrixState) newHubs(names []string) []int32 {
	var ids []int32
	seen := map[int]bool{}
	for _, h := range names {
		if id, ok := st.vocab.ID(h); ok && st.hubIdx[id] < 0 && !seen[id] {
			seen[id] = true
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// withHubs returns old with the IDs in promote (interned, not yet hubs,
// distinct) given full precomputed rows. Every cell an old hub row or
// the fallback memo already holds is copied, and a pair between two
// promoted names is computed once for both rows, so no pair is ever
// computed twice.
func (m *Matrix) withHubs(old *matrixState, promote []int32, workers int) *matrixState {
	if len(promote) == 0 {
		return old
	}
	vocab, base := old.vocab, len(old.hubIDs)
	st := &matrixState{
		vocab:   vocab,
		hubIdx:  slices.Clone(old.hubIdx),
		hubIDs:  append(slices.Clip(old.hubIDs), promote...),
		hubRows: append(slices.Clip(old.hubRows), make([][]float64, len(promote))...),
	}
	for k := base; k < len(st.hubIDs); k++ {
		st.hubIdx[st.hubIDs[k]] = int32(k)
	}
	// Pairs among the promoted names, computed serially up front (the
	// hub set is small) so the parallel row fill only reuses them.
	shared := make(map[uint64]float64, len(promote)*(len(promote)-1)/2)
	for x, i := range promote {
		for _, j := range promote[x+1:] {
			shared[pairKey(int(i), int(j))] = m.known(old, int(i), int(j))
		}
	}
	runParallel(workers, len(promote), func(x int) {
		id := int(promote[x])
		row := make([]float64, vocab.Len())
		for j := range row {
			if v, ok := shared[pairKey(id, j)]; ok {
				row[j] = v
			} else {
				row[j] = m.known(old, id, j)
			}
		}
		st.hubRows[base+x] = row
	})
	return st
}

// known returns the pair's value from one of st's hub rows or the
// fallback memo, and computes it only when neither holds it. IDs are
// stable across snapshots, so a hit is exactly the base value computed
// earlier.
func (m *Matrix) known(st *matrixState, i, j int) float64 {
	if hi := st.hubIdx[i]; hi >= 0 {
		return st.hubRows[hi][j]
	}
	if hj := st.hubIdx[j]; hj >= 0 {
		return st.hubRows[hj][i]
	}
	if v, ok := m.memo.Load(pairKey(i, j)); ok {
		return v.(float64)
	}
	return m.pair(st.vocab, i, j)
}

// extended builds the enlarged snapshot for Extend: old names keep their
// IDs, hub status and every computed value; each hub row copies its old
// columns and computes only the fresh names' (IDs ≥ the old vocabulary
// size, which no memo key can hold yet). Called under extendMu.
func (m *Matrix) extended(old *matrixState, vocab *Vocab, workers int) *matrixState {
	oldN, n := old.vocab.Len(), vocab.Len()
	st := &matrixState{
		vocab:   vocab,
		hubIdx:  make([]int32, n),
		hubIDs:  old.hubIDs,
		hubRows: make([][]float64, len(old.hubIDs)),
	}
	copy(st.hubIdx, old.hubIdx)
	for i := oldN; i < n; i++ {
		st.hubIdx[i] = -1
	}
	runParallel(workers, len(st.hubIDs), func(k int) {
		id := int(st.hubIDs[k])
		row := make([]float64, n)
		copy(row, old.hubRows[k])
		for j := oldN; j < n; j++ {
			row[j] = m.pair(vocab, id, j)
		}
		st.hubRows[k] = row
	})
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
	promote := old.newHubs(hubs)
	m.state.Store(m.withHubs(old, promote, workers))
	return len(promote)
}
