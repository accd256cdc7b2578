package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Snapshot is one immutable epoch of the serving state: the p-med-schema,
// every source's p-mappings, the consolidated schema, the memo that
// consolidates the mappings onto it on first use, and the query engine
// built over exactly that corpus. Queries run
// against a Snapshot obtained with a single atomic load, so every reader
// sees a consistent (PMed, Maps) pair by construction — no lock, no
// identity guard — while mutations build the next snapshot copy-on-write
// behind the system's single-writer commit lock and publish it atomically.
// Nothing reachable from a published Snapshot is ever mutated again.
type Snapshot struct {
	// Epoch numbers commits from 1 (the initial Setup/Restore) upward;
	// commits are totally ordered by the writer lock, so epochs observed
	// through System.Snapshot are monotonically non-decreasing.
	Epoch uint64
	// CreatedAt is the publication time, the base of the staleness the
	// /v1/schema endpoint reports.
	CreatedAt time.Time

	Corpus *schema.Corpus
	// Med holds this epoch's p-med-schema.
	Med *mediate.Result
	// Maps[source][l] is the p-mapping between a source and Med's l-th
	// schema. The map and every p-mapping in it are frozen.
	Maps map[string][]*pmapping.PMapping
	// Target is the consolidated mediated schema (§6).
	Target *schema.MediatedSchema

	// consMaps is the epoch's consolidation memo (see ConsMaps).
	consMaps func() map[string]*consolidate.PMapping
	engine   *answer.Engine
	sys      *System
}

// Snapshot returns the current serving snapshot with one atomic load.
// Hold the pointer for the duration of one request to see a single epoch;
// re-load to observe later commits.
func (s *System) Snapshot() *Snapshot {
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	// Systems assembled field-by-field (tests, tools) never ran a commit;
	// publish their current state lazily as epoch 1.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	return s.publish()
}

// Epoch returns the current snapshot's epoch.
func (s *System) Epoch() uint64 { return s.Snapshot().Epoch }

// Committing reports whether a mutation is currently building the next
// snapshot. Queries keep serving the previous epoch throughout; the flag
// exists so the API can report in-progress staleness.
func (s *System) Committing() bool { return s.committing.Load() }

// publish freezes the system's current state as the next epoch and makes
// it the serving snapshot. Callers must hold commitMu (or be the sole
// owner during construction) and must not mutate anything reachable from
// the published fields afterwards — the copy-on-write discipline every
// mutation path follows.
func (s *System) publish() *Snapshot {
	sn := &Snapshot{
		Epoch:     s.epoch.Add(1),
		CreatedAt: time.Now(),
		Corpus:    s.Corpus,
		Med:       s.Med,
		Maps:      s.Maps,
		Target:    s.Target,
		consMaps:  consolidateOnce(s.Med.PMed, s.Target, s.Maps, s.Corpus.Sources, s.Cfg.Parallelism, s.Cfg.Obs),
		engine:    s.engine,
		sys:       s,
	}
	s.snap.Store(sn)
	if s.Cfg.Obs.Enabled() {
		s.Cfg.Obs.Add("snapshot.commits", 1)
	}
	return sn
}

// adopt moves a freshly built system's state into s (the full-rebuild
// path of AddSources/RemoveSource, and a shard's state replacement). It
// replaces every data field but keeps
// s's identity — epoch counter, commit lock, published snapshot — so
// readers observe the rebuild as one more commit, not a new system. Its
// engine is the successor of s's over the rebuilt corpus, keeping the
// plan cache and the tables of unchanged sources.
func (s *System) adopt(r *System) {
	s.Corpus = r.Corpus
	s.Cfg = r.Cfg
	s.Med = r.Med
	s.Maps = r.Maps
	s.Target = r.Target
	s.Timings = r.Timings
	s.Trace = r.Trace
	s.caches = r.caches
	s.buildEngine()
}

// consolidateOnce returns the consolidation memo of one epoch: its first
// call consolidates every source's p-mappings onto target (§6, the
// three-step consolidation) with one shared Consolidator on up to
// workers goroutines, and every call returns that one frozen map. It
// captures the epoch's values, never the writer's fields, so commits
// racing the first call cannot change what it builds. A source whose
// materialization exceeds consolidate.MaxMappings is absent.
func consolidateOnce(pmed *schema.PMedSchema, target *schema.MediatedSchema, maps map[string][]*pmapping.PMapping,
	srcs []*schema.Source, workers int, r *obs.Registry) func() map[string]*consolidate.PMapping {
	return sync.OnceValue(func() map[string]*consolidate.PMapping {
		t0 := time.Now()
		co := consolidate.NewConsolidator(pmed, target)
		cons := make(map[string]*consolidate.PMapping, len(srcs))
		_ = eachSource(workers, srcs,
			func(src *schema.Source) (any, error) {
				cpm, err := co.Consolidate(maps[src.Name], consolidate.MaxMappings)
				if err != nil {
					cpm = nil // too large to materialize: absent
				}
				return cpm, nil
			},
			// apply runs in completion order; the keyed insert is commutative.
			func(src *schema.Source, res any) {
				if cpm := res.(*consolidate.PMapping); cpm != nil {
					cons[src.Name] = cpm
				}
			})
		if r.Enabled() {
			r.Add("consolidate.materializations", 1)
			r.Observe("consolidate.materialize_seconds", time.Since(t0).Seconds())
		}
		return cons
	})
}

// clonedMaps returns a shallow copy of a snapshot-published map so the
// writer can change entries without touching what readers hold. Values
// are shared: the caller must replace (never mutate) any entry it edits.
func clonedMaps[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// --- query path -------------------------------------------------------

// ConsMaps returns this epoch's consolidated one-to-many p-mappings, a
// source absent when its materialization exceeded
// consolidate.MaxMappings. The first call of an epoch builds them — every
// caller of that epoch waits for the one build, which does not watch any
// request context — and later calls return the same frozen map.
func (sn *Snapshot) ConsMaps() map[string]*consolidate.PMapping { return sn.consMaps() }

// ScanCtx evaluates q under approach a into an unranked part (see
// answer.ResultSet): the merge input a shard leg returns, and what
// RunCtx ranks; d says whether it lists instances. UDI scans the
// p-med-schema (Definition 3.3); Consolidated scans the consolidated
// schema and p-mappings (§6), which requires every source to have a
// materialized consolidated p-mapping — the epoch's first such scan pays
// for building them (see ConsMaps) before ctx bounds the scans.
func (sn *Snapshot) ScanCtx(ctx context.Context, a Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	switch a {
	case UDI:
		return sn.engine.ScanPMed(ctx, answer.PMedInput{PMed: sn.Med.PMed, Maps: sn.Maps}, q, d)
	case Consolidated:
		cons := sn.ConsMaps()
		if len(cons) != len(sn.Corpus.Sources) {
			return nil, fmt.Errorf("core: %d of %d sources lack consolidated p-mappings",
				len(sn.Corpus.Sources)-len(cons), len(sn.Corpus.Sources))
		}
		return sn.engine.ScanConsolidated(ctx, sn.Target, cons, q, d)
	}
	return nil, fmt.Errorf("core: unknown approach %q", a)
}

// RunCtx answers q under approach a by table: the ranked ScanCtx part,
// with each source's occurrence count and no instance list. It records
// the ranking's cost as query.rank_seconds and its distinct answers as
// query.tuples.
func (sn *Snapshot) RunCtx(ctx context.Context, a Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return sn.run(ctx, a, q, answer.CountOnly)
}

// RunInstancesCtx is RunCtx with the instances listed: what by-tuple
// ranking and the §7.1 evaluation read.
func (sn *Snapshot) RunInstancesCtx(ctx context.Context, a Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return sn.run(ctx, a, q, answer.WithInstances)
}

func (sn *Snapshot) run(ctx context.Context, a Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	rs, err := sn.ScanCtx(ctx, a, q, d)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	answer.Rank(rs)
	if r := sn.engine.Obs; r.Enabled() {
		r.Observe("query.rank_seconds", time.Since(t0).Seconds())
		r.Observe("query.tuples", float64(len(rs.Ranked)))
	}
	return rs, nil
}

// ExplainCtx returns the provenance of one answer tuple under this
// snapshot's UDI semantics (see answer.Contribution).
func (sn *Snapshot) ExplainCtx(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	return sn.engine.ExplainCtx(ctx, answer.PMedInput{PMed: sn.Med.PMed, Maps: sn.Maps}, q, values)
}

// RepresentativeName returns the most frequent source attribute of the
// cluster containing name in the consolidated schema, the name the system
// would expose to users (§3). Returns name itself if unclustered.
func (sn *Snapshot) RepresentativeName(name string) string {
	cluster := sn.Target.ClusterOf(name)
	if cluster == nil {
		return name
	}
	freq := sn.Corpus.AttrFrequency()
	best := cluster[0]
	for _, a := range cluster[1:] {
		if freq[a] > freq[best] {
			best = a
		}
	}
	return best
}

// AttrSim exposes the system's resolved attribute similarity (see
// System.AttrSim); the interned matrix behind it is safe for concurrent
// readers.
func (sn *Snapshot) AttrSim() func(a, b string) float64 { return sn.sys.AttrSim() }
