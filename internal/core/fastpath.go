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
// similarity matrices, the correspondence-row memo and the schema-dedup
// cache for p-mappings. One instance lives per System; a full rebuild
// (Setup) starts fresh. All members are safe under the system's
// concurrency discipline (queries share, mutations exclude) and the
// memo and dedup cache are additionally safe for the setup worker pool
// itself.
type setupCaches struct {
	simOnce sync.Once
	// matMed/matPMap are the interned matrices behind the similarity
	// functions the pipeline calls (Matrix.Sim); they are extended, never
	// rebuilt, on incremental source adds. One matrix serves both roles
	// when both use the default matcher.
	matMed  *intern.Matrix
	matPMap *intern.Matrix

	// rows memoizes pmapping.AttrCorrs: rows[l][attr] is the attribute's
	// correspondence row onto the l-th mediated schema. A row depends
	// only on the name and the clustering, so every source holding the
	// attribute shares it. Like the dedup cache it keys on schema
	// indices: a System maps sources onto one schema sequence for its
	// whole life (a fast mutation keeps the served sequence, a rebuild
	// adopts a fresh cache set with the rebuilt system).
	rows []map[string][]pmapping.Corr

	pmaps dedupCache
}

// dedupKey names one canonical p-mapping: an order-free attribute set
// (attrSetKey) against the schema-th mediated schema.
type dedupKey struct {
	attrs  string
	schema int
}

// dedupEntry computes its value exactly once; concurrent requesters for
// the same key block on the winner. owner is the source that created the
// entry: the canonical value carries its name, and it alone keeps the
// value uncloned.
type dedupEntry struct {
	once  sync.Once
	owner string
	val   *pmapping.PMapping
	err   error
}

// dedupCache is a keyed once-cache shared by the setup worker pool.
type dedupCache struct {
	mu sync.Mutex
	m  map[dedupKey]*dedupEntry
}

// entry returns the entry for key, creating it with owner if needed,
// and reports whether it already existed (an existing entry is a cache
// hit for accounting — the value may still be under construction by
// another worker, in which case once.Do blocks until it is ready).
func (c *dedupCache) entry(key dedupKey, owner string) (*dedupEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[dedupKey]*dedupEntry)
	}
	e, ok := c.m[key]
	if !ok {
		e = &dedupEntry{owner: owner}
		c.m[key] = e
	}
	return e, ok
}

// fillRows memoizes the correspondence row of every attribute of srcs
// onto every schema of pmed that the memo lacks. Each row is read off
// the cluster members' hub rows by interned ID — one name lookup per
// attribute, not one per member pair — with the matrix's Sim for any
// member or attribute the hub rows do not cover, so every value is the
// one pmapping.WeightedCorrespondencesAgg computes. Called by the single
// goroutine that maps sources, before its workers start: they read the
// memo without locks.
func (cs *setupCaches) fillRows(srcs []*schema.Source, pmed *schema.PMedSchema, cfg pmapping.Config) {
	for len(cs.rows) < pmed.Len() {
		cs.rows = append(cs.rows, make(map[string][]pmapping.Corr))
	}
	for l, m := range pmed.Schemas {
		// The members of m in (cluster, member) order; off[j] is where
		// cluster j starts.
		var members []string
		off := make([]int, len(m.Attrs))
		for j, a := range m.Attrs {
			off[j] = len(members)
			members = append(members, a...)
		}
		vocab, hub := cs.matPMap.HubRows(members)
		rows := cs.rows[l]
		for _, src := range srcs {
			for _, a := range src.Attrs {
				if _, ok := rows[a]; ok {
					continue
				}
				id, interned := vocab.ID(a)
				rows[a] = pmapping.AttrCorrs(a, m, func(j, k int) float64 {
					if r := hub[off[j]+k]; r != nil && interned {
						return r[id]
					}
					return cfg.Sim(a, m.Attrs[j][k])
				}, cfg)
			}
		}
	}
}

// initCaches attaches a fresh cache set; called from every System
// construction path (Setup, SetupUnder, Restore) before any stage runs.
func (s *System) initCaches() {
	s.caches = &setupCaches{}
}

// simTheta mirrors mediate's frequency threshold default: the matrix's
// hub rows must cover exactly the attributes mediation will treat as
// frequent.
func (s *System) simTheta() float64 {
	if t := s.Cfg.Mediate.Theta; t != 0 {
		return t
	}
	return mediate.DefaultTheta
}

// ensureSims builds the similarity matrices once per System: it interns
// the corpus-wide attribute vocabulary and precomputes the full rows of
// the frequent attributes — the one side every mediate/pmapping read
// touches — so every subsequent Sim call across mediate, pmapping and
// incremental re-runs is a lookup. A pair with no frequent side takes
// the exact memoized fallback, so the matrix is bit-identical to calling
// the base function everywhere (which is what internal/reference does)
// at O(hubs·V) instead of O(V²) cost. The vocabulary is frozen here;
// AddSources extends it.
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
			// Both roles use the default matcher: one matrix (and one
			// fallback memo) serves both.
			cs.matPMap = cs.matMed
		} else {
			cs.matPMap = intern.BuildSparse(names, s.Cfg.PMap.Sim, opt)
		}
		if r := s.Cfg.Obs; r.Enabled() {
			r.Add("setup.sim_matrix.builds", 1)
			r.Add("setup.sim_matrix.names", int64(len(names)))
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
// fully precomputed hub rows in the matrices, so incremental
// growth keeps the invariant that every pair the pipeline reads has a
// precomputed side. Values already known are reused, never recomputed.
// Called by the add paths with the corpus about to be installed.
func (s *System) refreshSimHubs(c *schema.Corpus) {
	s.ensureSimHubs(c.FrequentAttrs(s.simTheta()))
}

// ensureSimHubs promotes the named (interned) attributes to hub rows.
func (s *System) ensureSimHubs(hubs []string) {
	s.ensureSims()
	cs := s.caches
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
// canonical p-mapping from its attributes' memoized correspondence rows
// (mapSources has filled them) and keeps it; every other source receives
// a deep clone with its own SourceName. Feedback conditions clones
// (copy-on-write, see conditionFeedback), never the canonical value, so
// conditioning one source's p-mapping never reaches another's.
//
// pmed is the p-med-schema to map onto — passed rather than read from
// s.Med so a mutation can build against the mediation it is about to
// install without touching the writer state first.
func (s *System) buildSourceMappings(src *schema.Source, pmed *schema.PMedSchema) ([]*pmapping.PMapping, error) {
	cfg := s.pmapConfig()
	cs := s.caches
	pms := make([]*pmapping.PMapping, 0, pmed.Len())
	key := attrSetKey(src.Attrs)
	r := s.Cfg.Obs
	for l, m := range pmed.Schemas {
		e, existed := cs.pmaps.entry(dedupKey{key, l}, src.Name)
		e.once.Do(func() {
			// The source's rows joined in attribute order: exactly
			// pmapping.WeightedCorrespondencesAgg over the source.
			var raw []pmapping.Corr
			for _, a := range src.Attrs {
				raw = append(raw, cs.rows[l][a]...)
			}
			e.val, e.err = pmapping.BuildCorrs(e.owner, m, raw, cfg)
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
		pm := e.val
		if existed {
			pm = pm.Clone()
			pm.SourceName = src.Name
		}
		pms = append(pms, pm)
	}
	return pms, nil
}
