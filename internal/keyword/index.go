package keyword

import (
	"slices"
	"sort"
	"sync"

	"udi/internal/schema"
	"udi/internal/strutil"
)

// RowRef identifies one row of one source.
type RowRef struct {
	Source string
	Row    int
}

// Index is an inverted index from lower-cased tokens to the rows whose
// values contain them, plus a record of which tokens appear as attribute
// names in which sources. It backs the keyword-search baselines of §7.3
// (the substitute for MySQL's fulltext engine).
type Index struct {
	valuePostings map[string][]RowRef        // token -> rows whose cells contain it
	attrTokens    map[string]map[string]bool // token -> sources where it names an attribute
	sources       map[string]*schema.Source  // source name -> source
}

// sourceIndex is the per-source shard the sharded build produces before
// the deterministic merge: each row's deduplicated token-ID set,
// flattened into one backing array (toks[ends[r-1]:ends[r]] is row r's
// set). The flat layout keeps a source at two allocations instead of a
// map entry plus slice per row, which is what made the build GC-bound.
type sourceIndex struct {
	attrTokens map[string]bool
	toks       []int32
	ends       []int
}

// internTable assigns dense int32 IDs to distinct tokens so the merge
// works on slice indices instead of string-keyed maps. It is only
// consulted on tokenMemo misses (one per distinct cell value per worker),
// so the mutex is effectively uncontended.
type internTable struct {
	mu    sync.Mutex
	ids   map[string]int32
	names []string
}

func (it *internTable) intern(toks []string) []int32 {
	out := make([]int32, len(toks))
	it.mu.Lock()
	for i, t := range toks {
		id, ok := it.ids[t]
		if !ok {
			id = int32(len(it.names))
			it.ids[t] = id
			it.names = append(it.names, t)
		}
		out[i] = id
	}
	it.mu.Unlock()
	return out
}

// tokenMemo caches strutil.Tokens (interned) per distinct input string.
// Corpus cells repeat heavily (a handful of makes, models, colors across
// tens of thousands of rows), so the memo turns the build's dominant
// cost — tokenization — into a map lookup. One memo per worker;
// the cached slices are shared read-only.
type tokenMemo struct {
	it *internTable
	m  map[string][]int32
}

func (m tokenMemo) tokens(s string) []int32 {
	if t, ok := m.m[s]; ok {
		return t
	}
	t := m.it.intern(strutil.Tokens(s))
	m.m[s] = t
	return t
}

func newTokenMemo(it *internTable) tokenMemo {
	return tokenMemo{it: it, m: make(map[string][]int32)}
}

func indexSource(s *schema.Source, memo tokenMemo) sourceIndex {
	si := sourceIndex{
		attrTokens: make(map[string]bool),
		ends:       make([]int, len(s.Rows)),
	}
	// Attribute names stay as strings (a handful per source); going
	// through the intern table here would read its names slice while
	// other workers append to it.
	for _, a := range s.Attrs {
		for _, tok := range strutil.Tokens(a) {
			si.attrTokens[tok] = true
		}
	}
	var buf []int32
	for r, row := range s.Rows {
		buf = buf[:0]
		for _, cell := range row {
			buf = append(buf, memo.tokens(cell)...)
		}
		// Sort-and-skip-duplicates replaces the per-row seen map; rows
		// hold a handful of token IDs, so the sort is effectively free.
		slices.Sort(buf)
		for i, t := range buf {
			if i > 0 && t == buf[i-1] {
				continue
			}
			si.toks = append(si.toks, t)
		}
		si.ends[r] = len(si.toks)
	}
	return si
}

// BuildIndex indexes every cell value and attribute name of the corpus.
// Tokens are produced by strutil.Tokens (normalized, split on
// separators). The per-source tokenizing pass, the build's dominant cost,
// is split across up to workers goroutines; shards are merged in corpus
// order, so postings lists are identical at every worker count.
func BuildIndex(c *schema.Corpus, workers int) *Index {
	if workers > len(c.Sources) {
		workers = len(c.Sources)
	}
	it := &internTable{ids: make(map[string]int32)}
	shards := make([]sourceIndex, len(c.Sources))
	if workers > 1 {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				memo := newTokenMemo(it)
				for i := range jobs {
					shards[i] = indexSource(c.Sources[i], memo)
				}
			}()
		}
		for i := range c.Sources {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		memo := newTokenMemo(it)
		for i := range c.Sources {
			shards[i] = indexSource(c.Sources[i], memo)
		}
	}

	// The merge appends one posting per (row, token) pair — ~100k on a
	// realistic corpus. Interned IDs make it pure slice indexing; the
	// string-keyed map is assembled once at the end (one entry per
	// distinct token).
	postings := make([][]RowRef, len(it.names))
	ix := &Index{
		attrTokens: make(map[string]map[string]bool),
		sources:    make(map[string]*schema.Source, len(c.Sources)),
	}
	for i, s := range c.Sources {
		si := shards[i]
		ix.sources[s.Name] = s
		for tok := range si.attrTokens {
			m := ix.attrTokens[tok]
			if m == nil {
				m = make(map[string]bool)
				ix.attrTokens[tok] = m
			}
			m[s.Name] = true
		}
		// Postings append per row in corpus order, so each token's list
		// is sorted by (source position, row) regardless of worker count
		// and of the (arrival-ordered, nondeterministic) ID assignment.
		start := 0
		for r, end := range si.ends {
			for _, id := range si.toks[start:end] {
				postings[id] = append(postings[id], RowRef{s.Name, r})
			}
			start = end
		}
	}
	ix.valuePostings = make(map[string][]RowRef, len(postings))
	for id, refs := range postings {
		if refs != nil {
			ix.valuePostings[it.names[id]] = refs
		}
	}
	return ix
}

// IsAttrToken reports whether token appears (as a normalized token) in some
// attribute name of source. The KeywordStruct/KeywordStrict baselines use
// this to classify query keywords as structure terms vs value terms.
func (ix *Index) IsAttrToken(token, source string) bool {
	return ix.attrTokens[strutil.Normalize(token)][source]
}

// IsAttrTokenAnywhere reports whether token names an attribute in any
// source.
func (ix *Index) IsAttrTokenAnywhere(token string) bool {
	return len(ix.attrTokens[strutil.Normalize(token)]) > 0
}

// RowsWithAny returns the rows containing at least one of the tokens
// (value-term OR semantics). Tokens are normalized; multi-token inputs are
// split.
func (ix *Index) RowsWithAny(terms []string) []RowRef {
	seen := make(map[RowRef]bool)
	var out []RowRef
	for _, term := range terms {
		for _, tok := range strutil.Tokens(term) {
			for _, ref := range ix.valuePostings[tok] {
				if !seen[ref] {
					seen[ref] = true
					out = append(out, ref)
				}
			}
		}
	}
	sortRefs(out)
	return out
}

// RowsWithAll returns the rows containing every one of the tokens
// (value-term AND semantics, used by KeywordStrict). An empty term list
// yields no rows.
func (ix *Index) RowsWithAll(terms []string) []RowRef {
	var toks []string
	for _, term := range terms {
		toks = append(toks, strutil.Tokens(term)...)
	}
	if len(toks) == 0 {
		return nil
	}
	counts := make(map[RowRef]int)
	for _, tok := range dedupe(toks) {
		for _, ref := range ix.valuePostings[tok] {
			counts[ref]++
		}
	}
	need := len(dedupe(toks))
	var out []RowRef
	for ref, n := range counts {
		if n == need {
			out = append(out, ref)
		}
	}
	sortRefs(out)
	return out
}

// Row returns the raw row for a RowRef, or nil if the reference is stale.
func (ix *Index) Row(ref RowRef) []string {
	s := ix.sources[ref.Source]
	if s == nil || ref.Row < 0 || ref.Row >= len(s.Rows) {
		return nil
	}
	return s.Rows[ref.Row]
}

// SourceOf returns the source for a RowRef, or nil.
func (ix *Index) SourceOf(ref RowRef) *schema.Source { return ix.sources[ref.Source] }

func dedupe(toks []string) []string {
	seen := make(map[string]bool, len(toks))
	var out []string
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func sortRefs(refs []RowRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Source != refs[j].Source {
			return refs[i].Source < refs[j].Source
		}
		return refs[i].Row < refs[j].Row
	})
}
