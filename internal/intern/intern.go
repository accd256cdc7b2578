// Package intern assigns dense integer IDs to the corpus-wide attribute
// vocabulary and precomputes pairwise attribute-similarity values over
// it, replacing the millions of repeated string-similarity calls the
// setup pipeline otherwise makes (every source × mediated-cluster pair
// re-evaluates the same name pairs).
//
// BuildSparse precomputes the full rows of designated hub names — in the
// pipeline, the frequent attributes, the one side every mediate/pmapping
// read touches — and nothing else. Any other interned pair falls back to
// the exact base function on first read and is memoized, so lookups are
// bit-identical to calling the base function everywhere, at O(hubs·V)
// build cost instead of O(V²).
//
// A nil base means the default matcher, strutil.AttrSim, scored on
// names compiled once per interned ID (strutil.Compile) rather than
// re-normalized on every pair; strutil's tests and fuzz target pin the
// two front ends bit for bit.
//
// Invariants (see DESIGN.md "Setup fast path" and "Sub-quadratic
// setup"):
//
//   - Every value returned by Sim — hub row, memoized fallback, or
//     out-of-vocabulary — is the base function's value for that pair, so
//     the interned pipeline is differentially indistinguishable from one
//     calling the base function directly (internal/reference).
//   - The base similarity is assumed symmetric (the same assumption
//     wgraph.Build already makes); the matrix stores unordered pairs.
//   - The vocabulary is frozen per corpus build. Incremental source adds
//     with unseen names go through Extend, which publishes a new
//     (vocabulary, values) snapshot atomically: concurrent readers are
//     lock-free and always see a consistent pair. IDs are append-only
//     stable, so the fallback memo survives extension.
//   - Extend and EnsureHubs reuse every previously computed value
//     (copied, never recomputed): the base function is called at most
//     once per unordered pair over the matrix's whole lifetime.
//   - Names outside the vocabulary fall back to the base function
//     directly (no stable ID to memoize under); with the default
//     matcher that is the string strutil.AttrSim.
package intern

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"udi/internal/obs"
	"udi/internal/strutil"
)

// Vocab maps attribute names to dense IDs and keeps each name compiled
// for scoring. It is immutable after construction; Matrix.Extend builds
// a fresh Vocab rather than mutating.
type Vocab struct {
	ids      map[string]int
	names    []string
	compiled []strutil.Name
}

// NewVocab interns the given names in order, dropping duplicates.
func NewVocab(names []string) *Vocab {
	v := &Vocab{ids: make(map[string]int, len(names))}
	v.add(names)
	return v
}

// extend returns a vocabulary holding v's names, with their IDs and
// compiled forms, followed by the unseen names of fresh.
func (v *Vocab) extend(fresh []string) *Vocab {
	w := &Vocab{
		ids:      maps.Clone(v.ids),
		names:    slices.Clip(v.names),
		compiled: slices.Clip(v.compiled),
	}
	w.add(fresh)
	return w
}

// add interns and compiles the names not yet present, in order.
func (v *Vocab) add(names []string) {
	for _, n := range names {
		if _, ok := v.ids[n]; ok {
			continue
		}
		v.ids[n] = len(v.names)
		v.names = append(v.names, n)
		v.compiled = append(v.compiled, strutil.Compile(n))
	}
}

// ID returns the dense ID of name and whether it is interned.
func (v *Vocab) ID(name string) (int, bool) {
	id, ok := v.ids[name]
	return id, ok
}

// Name returns the name with the given ID.
func (v *Vocab) Name(id int) string { return v.names[id] }

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.names) }

// Names returns the interned names in ID order. The caller must not
// modify the returned slice.
func (v *Vocab) Names() []string { return v.names }

// matrixState is one immutable snapshot of (vocabulary, values): the
// full precomputed rows of the hub IDs.
type matrixState struct {
	vocab *Vocab

	// hubIdx[id] is the row index into hubRows, or -1; hubRows[k][j] is
	// the full precomputed row for hub hubIDs[k].
	hubIdx  []int32
	hubIDs  []int32
	hubRows [][]float64
}

// pairKey packs an unordered interned ID pair into a map key. IDs are
// append-only stable across Extend, so keys stay valid for the matrix's
// lifetime.
func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(j)
}

// Matrix is a hub-row symmetric similarity matrix over an interned
// vocabulary (see BuildSparse). Sim is safe for concurrent use
// without locks; Extend and EnsureHubs may run concurrently with readers
// (they swap in a new snapshot) but are serialized against each other
// internally.
type Matrix struct {
	base  func(a, b string) float64 // nil: the default matcher (see pair)
	state atomic.Pointer[matrixState]

	extendMu sync.Mutex

	// memo holds exact-fallback values for interned pairs with no hub
	// side, keyed by pairKey. A racing double-compute stores the same
	// pure value twice, which is benign.
	memo      sync.Map
	fallbacks atomic.Int64
	reg       *obs.Registry
}

// runParallel runs fn(0..n-1) across up to workers goroutines using an
// atomic work counter. fn calls must be independent.
func runParallel(workers, n int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var counter atomic.Int64
	counter.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(counter.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Sim returns the similarity of a and b: the precomputed hub-row value
// when either name is a hub, the memoized exact fallback for other
// interned pairs, and the base function directly for names outside the
// vocabulary. Every path returns exactly base(a, b). It is the drop-in
// replacement for the base in mediate/pmapping configs.
func (m *Matrix) Sim(a, b string) float64 {
	st := m.state.Load()
	if i, ok := st.vocab.ID(a); ok {
		if j, ok := st.vocab.ID(b); ok {
			if hi := st.hubIdx[i]; hi >= 0 {
				return st.hubRows[hi][j]
			}
			if hj := st.hubIdx[j]; hj >= 0 {
				return st.hubRows[hj][i]
			}
			return m.fallbackSim(st.vocab, i, j)
		}
	}
	if m.base == nil {
		return strutil.AttrSim(a, b)
	}
	return m.base(a, b)
}

// pair is the one place the matrix evaluates its base similarity for
// two interned IDs: the default matcher on their compiled names, or the
// configured base on the strings.
func (m *Matrix) pair(v *Vocab, i, j int) float64 {
	if m.base == nil {
		return strutil.AttrSimNames(&v.compiled[i], &v.compiled[j])
	}
	return m.base(v.names[i], v.names[j])
}

// fallbackSim computes an interned pair with no hub side and memoizes
// it under the stable ID-pair key.
func (m *Matrix) fallbackSim(vocab *Vocab, i, j int) float64 {
	key := pairKey(i, j)
	if v, ok := m.memo.Load(key); ok {
		return v.(float64)
	}
	v := m.pair(vocab, i, j)
	m.memo.Store(key, v)
	m.fallbacks.Add(1)
	if m.reg != nil && m.reg.Enabled() {
		m.reg.Add("setup.sim_matrix.fallback_lookups", 1)
	}
	return v
}

// HubRows returns, from one snapshot, the vocabulary and each name's
// precomputed row — indexed by that vocabulary's IDs, so row[id] is
// Sim(name, vocab.Name(id)) — or nil for a name that is not a hub. It
// lets a caller scoring many names against a few hubs resolve each name
// once and read the rest by ID. The caller must not modify the rows.
func (m *Matrix) HubRows(names []string) (*Vocab, [][]float64) {
	st := m.state.Load()
	rows := make([][]float64, len(names))
	for x, name := range names {
		if id, ok := st.vocab.ID(name); ok {
			if hi := st.hubIdx[id]; hi >= 0 {
				rows[x] = st.hubRows[hi]
			}
		}
	}
	return st.vocab, rows
}

// Len returns the current vocabulary size.
func (m *Matrix) Len() int { return m.state.Load().vocab.Len() }

// Vocab returns the current vocabulary snapshot.
func (m *Matrix) Vocab() *Vocab { return m.state.Load().vocab }

// Stats describes the current snapshot's precomputed structure.
type Stats struct {
	Hubs            int   // names with fully precomputed rows
	CandidatePairs  int   // precomputed cells: hubs × vocabulary
	FallbackLookups int64 // exact-fallback computations since construction
}

// Stats returns the precomputed structure of the current snapshot.
func (m *Matrix) Stats() Stats {
	st := m.state.Load()
	return Stats{
		Hubs:            len(st.hubIDs),
		CandidatePairs:  len(st.hubIDs) * st.vocab.Len(),
		FallbackLookups: m.fallbacks.Load(),
	}
}

// Extend interns any names not yet in the vocabulary (sorted for
// deterministic IDs), computes the new entries with up to workers
// goroutines, and atomically publishes the enlarged snapshot. It returns
// the number of names added. Existing values are carried over — hub
// columns copied, the fallback memo shared, never recomputed — so old and
// new snapshots agree bit-for-bit on old pairs and the base function runs
// at most once per pair across any Build/Extend sequence.
func (m *Matrix) Extend(names []string, workers int) int {
	m.extendMu.Lock()
	defer m.extendMu.Unlock()
	old := m.state.Load()
	var fresh []string
	seen := map[string]bool{}
	for _, n := range names {
		if _, ok := old.vocab.ID(n); ok || seen[n] {
			continue
		}
		seen[n] = true
		fresh = append(fresh, n)
	}
	if len(fresh) == 0 {
		return 0
	}
	sort.Strings(fresh)
	m.state.Store(m.extended(old, old.vocab.extend(fresh), workers))
	return len(fresh)
}
