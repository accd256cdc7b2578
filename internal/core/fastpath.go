package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"udi/internal/intern"
	"udi/internal/mediate"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/strutil"
)

// setupCaches holds the setup fast path's shared state: the interned
// similarity matrices and the schema-dedup cache for p-mappings. One
// instance lives per System; a full rebuild (Setup) starts fresh. All
// members are safe under the system's concurrency discipline (queries
// share, mutations exclude) and the dedup cache is additionally safe for
// the setup worker pool itself.
type setupCaches struct {
	simOnce sync.Once
	// matMed/matPMap are the interned matrices behind the similarity
	// functions the pipeline calls (Matrix.Sim); they are extended, never
	// rebuilt, on incremental source adds. One matrix serves both roles
	// when both use the default matcher.
	matMed  *intern.Matrix
	matPMap *intern.Matrix

	pmaps dedupCache[*pmapping.PMapping]
}

// dedupEntry computes its value exactly once; concurrent requesters for
// the same key block on the winner.
type dedupEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// dedupCache is a keyed once-cache shared by the setup worker pool.
type dedupCache[T any] struct {
	mu sync.Mutex
	m  map[string]*dedupEntry[T]
}

// entry returns the entry for key, creating it if needed, and reports
// whether it already existed (an existing entry is a cache hit for
// accounting — the value may still be under construction by another
// worker, in which case once.Do blocks until it is ready).
func (c *dedupCache[T]) entry(key string) (*dedupEntry[T], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*dedupEntry[T])
	}
	e, ok := c.m[key]
	if !ok {
		e = &dedupEntry[T]{}
		c.m[key] = e
	}
	return e, ok
}

// drop removes one entry (no-op for absent keys).
func (c *dedupCache[T]) drop(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// initCaches attaches a fresh cache set; called from every System
// construction path (Setup, setupDeterministic, Restore) before any
// stage runs.
func (s *System) initCaches() {
	s.caches = &setupCaches{}
}

// simTheta mirrors mediate's frequency threshold default: the hub rows
// of the blocked matrix must cover exactly the attributes mediation will
// treat as frequent.
func (s *System) simTheta() float64 {
	if t := s.Cfg.Mediate.Theta; t != 0 {
		return t
	}
	return mediate.DefaultTheta
}

// ensureSims builds the similarity matrices once per System: it interns
// the corpus-wide attribute vocabulary and precomputes base values so
// every subsequent Sim call across mediate, pmapping and incremental
// re-runs is a lookup. The matrix is LSH-blocked sparse: full rows for
// the frequent attributes (the one side every mediate/pmapping read
// touches) plus band candidate pairs, with an exact memoized fallback —
// bit-identical to calling the base function everywhere (which is what
// internal/reference does) at O(hubs·V + candidates) instead of O(V²)
// cost. The vocabulary is frozen here; AddSources extends it.
//
// An unset Cfg.Mediate.Sim / Cfg.PMap.Sim reaches intern as nil, the
// default matcher scored on names compiled once; a configured function,
// strutil.AttrSim included, is called on the strings.
func (s *System) ensureSims() {
	cs := s.caches
	cs.simOnce.Do(func() {
		t0 := time.Now()
		names := s.Corpus.AllAttrs()
		opt := intern.SparseOptions{
			Hubs:    s.Corpus.FrequentAttrs(s.simTheta()),
			Workers: s.Cfg.Parallelism,
			Obs:     s.Cfg.Obs,
		}
		cs.matMed = intern.BuildSparse(names, s.Cfg.Mediate.Sim, opt)
		if s.Cfg.Mediate.Sim == nil && s.Cfg.PMap.Sim == nil {
			// Both roles use the default matcher: one blocked matrix
			// (and one fallback memo) serves both.
			cs.matPMap = cs.matMed
		} else {
			cs.matPMap = intern.BuildSparse(names, s.Cfg.PMap.Sim, opt)
		}
		if r := s.Cfg.Obs; r.Enabled() {
			r.Add("setup.sim_matrix.builds", 1)
			r.Add("setup.sim_matrix.names", int64(len(names)))
			st := cs.matMed.Stats()
			bands, cand := int64(st.Bands), int64(st.CandidatePairs)
			if cs.matPMap != cs.matMed {
				st2 := cs.matPMap.Stats()
				bands += int64(st2.Bands)
				cand += int64(st2.CandidatePairs)
			}
			r.Add("setup.lsh.bands", bands)
			r.Add("setup.lsh.candidate_pairs", cand)
			r.Observe("setup.sim_matrix.build_seconds", time.Since(t0).Seconds())
		}
	})
}

// extendSims grows the interned vocabulary (and both matrices) with any
// attribute names the pipeline has not seen — the incremental-add path.
// Known names are free; the matrices publish enlarged snapshots
// atomically so concurrent readers never block.
func (s *System) extendSims(names []string) {
	s.ensureSims()
	cs := s.caches
	added := cs.matMed.Extend(names, s.Cfg.Parallelism)
	if cs.matPMap != cs.matMed {
		cs.matPMap.Extend(names, s.Cfg.Parallelism)
	}
	if added > 0 && s.Cfg.Obs.Enabled() {
		s.Cfg.Obs.Add("setup.sim_matrix.extends", 1)
		s.Cfg.Obs.Add("setup.sim_matrix.names", int64(added))
	}
}

// refreshSimHubs promotes any attributes of c that are (now) frequent to
// fully precomputed hub rows in the blocked matrices, so incremental
// growth keeps the invariant that every pair the pipeline reads has a
// precomputed side. Values already known are reused, never recomputed.
// Called by the add paths with the corpus about to be installed.
func (s *System) refreshSimHubs(c *schema.Corpus) {
	s.ensureSims()
	cs := s.caches
	hubs := c.FrequentAttrs(s.simTheta())
	cs.matMed.EnsureHubs(hubs, s.Cfg.Parallelism)
	if cs.matPMap != cs.matMed {
		cs.matPMap.EnsureHubs(hubs, s.Cfg.Parallelism)
	}
}

// medConfig returns the mediate config with the resolved (matrix-backed)
// similarity.
func (s *System) medConfig() mediate.Config {
	s.ensureSims()
	cfg := s.Cfg.Mediate
	cfg.Sim = s.caches.matMed.Sim
	return cfg
}

// pmapConfig returns the pmapping config with the resolved
// (matrix-backed) similarity.
func (s *System) pmapConfig() pmapping.Config {
	s.ensureSims()
	cfg := s.Cfg.PMap
	cfg.Sim = s.caches.matPMap.Sim
	return cfg
}

// AttrSim returns the attribute similarity used for p-mapping
// construction, backed by the interned matrix. External
// consumers (the feedback ranker) should prefer this over reading
// Cfg.PMap.Sim so repeated evaluations hit the precomputed values.
func (s *System) AttrSim() strutil.Func {
	s.ensureSims()
	return s.caches.matPMap.Sim
}

// dropFeedbackCacheEntries scopes the schema-dedup invalidation of one
// feedback batch: for each fed-back source, drop the canonical p-mapping
// entries of exactly the (attribute set, schema) pairs the feedback
// conditioned. Every other entry stays valid: canonical values are only
// ever computed from unconditioned state (pmapping.Build depends solely
// on the attribute set and the clustering), and feedback conditions
// per-source clones, never the canonical values — so a surviving entry
// hands a future source bit-for-bit what a fresh pmapping.Build would
// compute. The feedback differential suite pins
// this against internal/reference. feedback.scoped_drops counts the
// entries removed.
func (s *System) dropFeedbackCacheEntries(dirty map[string][]int) {
	if s.caches == nil {
		return
	}
	dropped := 0
	for name, schemas := range dirty {
		for _, src := range s.Corpus.Sources {
			if src.Name != name {
				continue
			}
			key := attrSetKey(src.Attrs)
			for _, l := range schemas {
				s.caches.pmaps.drop(fmt.Sprintf("%s\x1e%d", key, l))
			}
			dropped += len(schemas)
			break
		}
	}
	s.Cfg.Obs.Add("feedback.scoped_drops", int64(dropped))
}

// attrSetKey canonicalizes a source schema as an order-free attribute
// set: the dedup cache keys on it because pmapping.Build provably
// depends only on the attribute set (see
// pmapping.TestBuildCanonicalUnderAttrOrder), not on column order, rows
// or the source name.
func attrSetKey(attrs []string) string {
	sorted := make([]string, len(attrs))
	copy(sorted, attrs)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x1f")
}

// buildSourceMappings constructs the per-schema p-mappings for one
// source, sharing work across sources with identical attribute sets: the
// first source with a given (attr set, schema) pair computes the
// canonical p-mapping, every other source receives a deep clone with its
// own SourceName. Clones keep feedback conditioning per-source: mutating
// one source's p-mapping never reaches another's.
//
// pmed is the p-med-schema to map onto — passed rather than read from
// s.Med so a mutation can build against the mediation it is about to
// install without touching the writer state first.
func (s *System) buildSourceMappings(src *schema.Source, pmed *schema.PMedSchema) ([]*pmapping.PMapping, error) {
	cfg := s.pmapConfig()
	pms := make([]*pmapping.PMapping, 0, pmed.Len())
	key := attrSetKey(src.Attrs)
	r := s.Cfg.Obs
	for l, m := range pmed.Schemas {
		e, existed := s.caches.pmaps.entry(fmt.Sprintf("%s\x1e%d", key, l))
		e.once.Do(func() {
			e.val, e.err = pmapping.Build(src, m, cfg)
		})
		if r.Enabled() {
			if existed {
				r.Add("setup.pmap_dedup.hits", 1)
			} else {
				r.Add("setup.pmap_dedup.misses", 1)
			}
		}
		if e.err != nil {
			return nil, fmt.Errorf("core: p-mapping for %q: %w", src.Name, e.err)
		}
		pm := e.val.Clone()
		pm.SourceName = src.Name
		pms = append(pms, pm)
	}
	return pms, nil
}
