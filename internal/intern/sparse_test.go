package intern

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"udi/internal/strutil"
)

// countingBase wraps a base similarity and counts how many times each
// unordered pair is computed — the probe behind the compute-at-most-once
// guarantees.
type countingBase struct {
	mu    sync.Mutex
	calls map[[2]string]int
}

func newCountingBase() *countingBase {
	return &countingBase{calls: make(map[[2]string]int)}
}

func (c *countingBase) fn(a, b string) float64 {
	if a > b {
		a, b = b, a
	}
	c.mu.Lock()
	c.calls[[2]string{a, b}]++
	c.mu.Unlock()
	return strutil.AttrSim(a, b)
}

func (c *countingBase) maxPerPair() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0
	for _, n := range c.calls {
		if n > m {
			m = n
		}
	}
	return m
}

func testNames(n int, rng *rand.Rand) []string {
	stems := []string{"price", "phone", "name", "address", "director", "year", "genre", "rating"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %d", stems[rng.Intn(len(stems))], rng.Intn(n))
	}
	return out
}

// Every Sim answer from a sparse matrix — hub row, memoized fallback, or
// out-of-vocabulary — must be bit-identical to the base function.
func TestSparseMatrixMatchesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := testNames(60, rng)
	hubs := names[:7]
	m := BuildSparse(names, strutil.AttrSim, SparseOptions{Hubs: hubs, Workers: 2})
	for _, a := range names {
		for _, b := range names {
			if got, want := m.Sim(a, b), strutil.AttrSim(a, b); got != want {
				t.Fatalf("Sim(%q, %q) = %v, base = %v", a, b, got, want)
			}
		}
	}
	// Out-of-vocabulary lookups bypass the matrix but stay exact.
	if got, want := m.Sim("price 1", "never interned"), strutil.AttrSim("price 1", "never interned"); got != want {
		t.Fatalf("out-of-vocab Sim = %v, base = %v", got, want)
	}
	st := m.Stats()
	if st.Hubs != 7 {
		t.Fatalf("Stats.Hubs = %d, want 7", st.Hubs)
	}
	if st.CandidatePairs != 7*m.Len() {
		t.Fatalf("Stats.CandidatePairs = %d, want 7 hub rows × %d names", st.CandidatePairs, m.Len())
	}
}

// The satellite regression: extending twice with overlapping name sets
// must equal the base function over the union, and the base function
// must run at most once per unordered pair across the whole sequence —
// no re-deriving values for the dropped-duplicate positions.
func TestExtendTwiceWithOverlapEqualsOneBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	names := testNames(45, rng)
	a, b, c := names[:20], names[10:35], names[25:]

	cb := newCountingBase()
	m := BuildSparse(a, cb.fn, SparseOptions{Hubs: a[:4], Workers: 2})
	// Both extensions overlap the existing vocabulary.
	m.Extend(b, 2)
	m.Extend(c, 2)

	for _, x := range names {
		for _, y := range names {
			if got, want := m.Sim(x, y), strutil.AttrSim(x, y); got != want {
				t.Fatalf("Sim(%q, %q) = %v after extends, base = %v", x, y, got, want)
			}
		}
	}
	if max := cb.maxPerPair(); max > 1 {
		t.Fatalf("a pair was computed %d times across build+extend+reads, want at most once", max)
	}
}

// EnsureHubs promotes already-interned names to full precomputed rows:
// subsequent reads against a promoted hub must not take the fallback
// path, and previously computed values must be reused, not recomputed.
func TestEnsureHubsPromotesWithoutRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := testNames(40, rng)
	cb := newCountingBase()
	m := BuildSparse(names, cb.fn, SparseOptions{Hubs: names[:3], Workers: 1})

	// Touch some non-candidate pairs so the memo holds fallback values.
	for i := 0; i < 10; i++ {
		m.Sim(names[rng.Intn(len(names))], names[rng.Intn(len(names))])
	}
	if added := m.EnsureHubs(names[:8], 1); added == 0 {
		t.Fatal("EnsureHubs promoted nothing")
	}
	if got := m.Stats().Hubs; got < 8 {
		t.Fatalf("Stats.Hubs = %d after EnsureHubs, want >= 8", got)
	}
	before := m.Stats().FallbackLookups
	for _, h := range names[:8] {
		for _, x := range names {
			if got, want := m.Sim(h, x), strutil.AttrSim(h, x); got != want {
				t.Fatalf("Sim(%q, %q) = %v, base = %v", h, x, got, want)
			}
		}
	}
	if after := m.Stats().FallbackLookups; after != before {
		t.Fatalf("hub reads took %d fallback lookups, want 0", after-before)
	}
	if max := cb.maxPerPair(); max > 1 {
		t.Fatalf("a pair was computed %d times across build+reads+EnsureHubs, want at most once", max)
	}
	// Hub promotion is idempotent.
	if added := m.EnsureHubs(names[:8], 1); added != 0 {
		t.Fatalf("second EnsureHubs promoted %d names, want 0", added)
	}
}

// Extending a sparse matrix must keep hub rows full-width and candidate
// coverage over the enlarged vocabulary, with concurrent readers always
// seeing a consistent snapshot.
func TestSparseExtendConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := testNames(30, rng)
	m := BuildSparse(names[:15], strutil.AttrSim, SparseOptions{Hubs: names[:5], Workers: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := names[r.Intn(len(names))], names[r.Intn(len(names))]
				if got, want := m.Sim(a, b), strutil.AttrSim(a, b); got != want {
					t.Errorf("Sim(%q, %q) = %v, want %v", a, b, got, want)
					return
				}
			}
		}(int64(w))
	}
	for i := 15; i < len(names); i++ {
		m.Extend(names[i:i+1], 2)
	}
	close(stop)
	wg.Wait()
	if m.Len() != len(NewVocab(names).names) {
		t.Fatalf("vocabulary size %d after extends", m.Len())
	}
}

// The nil-base matrix scores the default matcher on compiled names:
// every Sim answer — hub row, memoized fallback, or out-of-vocabulary —
// must equal strutil.AttrSim bit for bit, before and after Extend and
// EnsureHubs.
func TestDefaultMatrixMatchesAttrSim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := append(testNames(50, rng), "Phone-No.", "phone no", "Straße", "İndex", "名前", "---", "")
	check := func(stage string, m *Matrix, names []string) {
		t.Helper()
		for _, a := range names {
			for _, b := range names {
				if got, want := m.Sim(a, b), strutil.AttrSim(a, b); got != want {
					t.Fatalf("%s: Sim(%q, %q) = %v, AttrSim = %v", stage, a, b, got, want)
				}
			}
		}
		if got, want := m.Sim(names[0], "never interned"), strutil.AttrSim(names[0], "never interned"); got != want {
			t.Fatalf("%s: out-of-vocab Sim = %v, AttrSim = %v", stage, got, want)
		}
	}
	m := BuildSparse(names[:30], nil, SparseOptions{Hubs: names[:4], Workers: 2})
	if st := m.Stats(); st.Hubs != 4 || st.CandidatePairs == 0 {
		t.Fatalf("blocking structure %+v, want 4 hubs and candidates", st)
	}
	check("build", m, names[:30])
	if m.Stats().FallbackLookups == 0 {
		t.Fatal("no read took the memoized fallback; the check missed that path")
	}
	// Read the memoized fallbacks again: served from the memo.
	check("memo", m, names[:30])

	m.Extend(names[20:], 2)
	check("extend", m, names)
	m.EnsureHubs(names[25:40], 1)
	check("hubs", m, names)
	if got := m.Stats().Hubs; got != 4+15 {
		t.Fatalf("Stats.Hubs = %d after EnsureHubs, want 19", got)
	}
}
