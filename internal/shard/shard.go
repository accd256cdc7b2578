// Package shard is the one scatter-gather coordinator: it partitions an
// integration system across N shards and gathers query answers back into
// exactly what the single system would have produced. Mediation stays a
// corpus-global artifact — the p-med-schema is a function of the whole
// corpus — so the coordinator plans it once per structural mutation,
// together with every p-mapping that changes, and pushes it to every
// shard; each shard stores and scans the subset of sources that hash to
// it, and receives a source's rows once, in the change that adds it.
//
// The coordinator is written against the small Shard interface and knows
// nothing about where a shard runs. Two transports implement it: the
// in-process one in this package (Local: a core.System plus, when
// durable, that shard's persist.Store) and the networked one in
// internal/shardrpc (an RPC stub over a shard host's read set — and the
// host at the other end serves a Local).
//
// The package's contract is differential: for every query, approach, and
// mutation history, the scatter-gather answer is bit-identical to the
// single-core oracle — identical ranking, probabilities equal to the
// last bit, not merely close. The differential harnesses pin this at
// shard counts {1,2,4,8} on both transports; the design notes in
// DESIGN.md lay out why the merge preserves IEEE semantics (per-source
// disjunction factors are revisited in global corpus order, absent
// sources contribute the exact no-op factor 1.0).
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Options configures an in-process sharded system.
type Options struct {
	// Shards is the number of partitions (default 1). Fixed for the life
	// of a data directory: resharding is not supported.
	Shards int
	// DataDir, when set, makes the system durable: each shard keeps its
	// WAL and checkpoint under DataDir/shard-NNN, and the coordinator
	// journals multi-shard mutations so a crash at any point recovers to
	// a state the single-core oracle could have produced.
	DataDir string
	// CheckpointEvery / NoSync configure each shard's persist.Store.
	CheckpointEvery uint64
	NoSync          bool
}

// ShardOf is the deterministic source→shard assignment: FNV-1a of the
// source name modulo the shard count. Exported so tests and operators can
// predict placement; changing it would strand every durable layout.
func ShardOf(name string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(shards))
}

// Change is the one structural change a coordinator pushes to a shard:
// the shard's corpus, mediation, target and p-mappings afterwards, with
// the rows of only the sources it may lack (see core.ShardChange). The
// coordinator plans all of it; a shard never runs matching, mediation or
// p-mapping construction.
type Change = core.ShardChange

// Shard is one partition as the coordinator drives it — the whole
// contract a transport must meet. Restructure, the one structural verb,
// is only ever called under the coordinator's write lock, one at a time
// per shard, and is idempotent by construction: a Change says what to
// become, not what to do, so re-applying one converges. That is what lets
// a transport retry a lost response and lets crash recovery redo a
// journaled mutation over shards that may already reflect it.
type Shard interface {
	// Pin captures the read leg one View fans out to.
	Pin() Leg
	// Feedback applies one feedback item owned by this shard. It is the
	// one verb that is not idempotent: feedback conditions probabilities
	// multiplicatively, so a transport sends it exactly once.
	Feedback(fb core.Feedback) error
	// Restructure installs ch all-or-nothing under one commit; a shard
	// with no state yet bootstraps from it, an empty corpus included.
	// Unlike a system-level remove it may empty the shard: "last source"
	// is a global property only the coordinator can judge. It refuses a
	// change that keeps a held source's own p-mappings under a Med whose
	// schema sequence is not the served one: they are indexed by it.
	Restructure(ch Change) error
	// Checkpoint makes the shard's current state its on-disk state; the
	// coordinator calls it on the shards a journaled mutation touched. A
	// shard that is not durable, or that persists inside Restructure,
	// returns nil.
	Checkpoint() error
	// Close releases what the shard holds open.
	Close() error
}

// Leg is one shard's side of a View. A transport that can pin state (the
// in-process one pins a core.Snapshot) answers every call from the state
// captured at Pin time; one that cannot (the networked one) answers from
// whatever the shard serves when the call arrives.
type Leg interface {
	// Epoch is the shard's commit counter as of the pin.
	Epoch() uint64
	// CreatedAt is when the pinned state was published, or the zero time
	// when the leg pins none.
	CreatedAt() time.Time
	// Run scans the query over this shard's sources and returns merge
	// inputs only: a part (PerSource with its occurrence counts, plus
	// Instances when d asks for them; Ranked nil) that the coordinator's
	// merge ranks with every other leg's.
	Run(ctx context.Context, a core.Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error)
	// Explain reports this shard's contributions behind one answer.
	Explain(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error)
	// Candidates returns the top limit of this shard's feedback question
	// queue (0 = all), in feedback.MergeCandidates order.
	Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error)
}

// servingMeta is the coordinator's atomically published cross-shard
// state: the global source order (which the merge needs to visit
// disjunction factors in oracle order) and the shared mediation
// artifacts every shard serves.
type servingMeta struct {
	order     []string
	med       *mediate.Result
	target    *schema.MediatedSchema
	createdAt time.Time
}

// System is the scatter-gather coordinator. Queries capture a View
// lock-free; mutations serialize on one coordinator lock and route to the
// owning shard, refreshing the global mediation when a source arrives or
// leaves.
type System struct {
	cfg    core.Config
	opts   Options
	domain string
	shards []Shard

	// mu is held exclusively by structural mutations (add/remove source,
	// checkpoint, close) and shared by feedback submissions: feedback
	// routes to exactly one shard's own single-writer commit path, so
	// concurrent submissions to the same shard reach its group-commit
	// queue together and batch under one fsync instead of serializing on
	// the coordinator. fbInFlight counts submissions between RLock and
	// the shard commit so Committing stays conservative in that window.
	mu         sync.RWMutex
	mutating   atomic.Bool
	fbInFlight atomic.Int64
	meta       atomic.Pointer[servingMeta]
	// sources holds the corpus by name; written under mu, read by
	// feedback under its read lock.
	sources map[string]*schema.Source

	// crashAt, when set by a test, simulates a crash at a named commit
	// stage: a non-nil return aborts the mutation mid-protocol, leaving
	// the on-disk state exactly as a real crash there would.
	crashAt func(stage string) error
}

// New sets up an in-process sharded system over the corpus. With
// Options.DataDir set the layout is persisted immediately.
func New(c *schema.Corpus, cfg core.Config, opts Options) (*System, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	s := &System{cfg: cfg, opts: opts, domain: c.Domain}
	for i := 0; i < opts.Shards; i++ {
		s.shards = append(s.shards, s.newLocal(i))
	}
	if err := s.setup(c); err != nil {
		return nil, err
	}
	return s, nil
}

// NewOver sets up a sharded system over shards some other transport
// provides (internal/shardrpc hands in its remote stubs). Whatever state
// the shards hold, setup makes each hold exactly its slice.
func NewOver(c *schema.Corpus, cfg core.Config, shards []Shard) (*System, error) {
	s := &System{cfg: cfg, domain: c.Domain, shards: shards}
	if err := s.setup(c); err != nil {
		return nil, err
	}
	return s, nil
}

// setup runs the one global core.Setup — mediation and every p-mapping —
// and pushes each shard its slice: every source's rows (a shard may lack
// any of them) with the blueprint's p-mappings.
func (s *System) setup(c *schema.Corpus) error {
	blue, err := core.Setup(c, s.cfg)
	if err != nil {
		return err
	}
	ch := &change{adds: c.Sources, srcs: c.Sources, med: blue.Med, target: blue.Target, maps: blue.Maps, rebuild: true}
	if err := s.push(nil, ch, s.allShards()); err != nil {
		return err
	}
	s.publish(c.Sources, blue.Med, blue.Target)
	return s.finishDurable(s.allShards())
}

// publish records the committed corpus and makes it, with the shared
// mediation, the state new Views capture.
func (s *System) publish(srcs []*schema.Source, med *mediate.Result, target *schema.MediatedSchema) {
	order := make([]string, len(srcs))
	s.sources = make(map[string]*schema.Source, len(srcs))
	for i, src := range srcs {
		order[i] = src.Name
		s.sources[src.Name] = src
	}
	s.meta.Store(&servingMeta{order: order, med: med, target: target, createdAt: time.Now()})
}

func (s *System) allShards() []int {
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// NumShards returns the shard count.
func (s *System) NumShards() int { return len(s.shards) }

// Obs returns the observability registry mutations and shards report to.
func (s *System) Obs() *obs.Registry {
	if s.cfg.Obs != nil {
		return s.cfg.Obs
	}
	return obs.Default
}

// Committing reports whether any mutation is in flight. Every shard-side
// commit runs inside one of the two windows counted here, so the flag
// means the same thing on every transport.
func (s *System) Committing() bool {
	return s.mutating.Load() || s.fbInFlight.Load() > 0
}

func (s *System) crash(stage string) error {
	if s.crashAt == nil {
		return nil
	}
	return s.crashAt(stage)
}

// --- read path --------------------------------------------------------

// View is one cross-shard read view: the published coordinator meta plus
// one pinned leg per shard. Reads are per-shard snapshot-isolated at
// best: a concurrent multi-shard mutation may be visible on some shards
// and not others within one View (the epoch vector makes this
// observable); each shard's state is internally consistent, and
// quiescent views are globally consistent.
type View struct {
	meta *servingMeta
	legs []Leg
	obs  *obs.Registry
}

// View captures the current cross-shard read view.
func (s *System) View() *View {
	v := &View{meta: s.meta.Load(), legs: make([]Leg, len(s.shards)), obs: s.cfg.Obs}
	for i, sh := range s.shards {
		v.legs[i] = sh.Pin()
	}
	return v
}

// EpochVector is the cross-shard epoch vector, one commit counter per
// shard.
func (v *View) EpochVector() []uint64 {
	out := make([]uint64, len(v.legs))
	for i, l := range v.legs {
		out[i] = l.Epoch()
	}
	return out
}

// Epoch collapses the epoch vector into one monotone counter (the sum):
// every commit anywhere increases it, so it plays the staleness-token
// role the single-core epoch plays in /v1 responses.
func (v *View) Epoch() uint64 {
	var sum uint64
	for _, l := range v.legs {
		sum += l.Epoch()
	}
	return sum
}

// CreatedAt is the publication time of the newest state in the view: the
// coordinator's meta or any pinned shard state.
func (v *View) CreatedAt() time.Time {
	t := v.meta.createdAt
	for _, l := range v.legs {
		if at := l.CreatedAt(); at.After(t) {
			t = at
		}
	}
	return t
}

// NumSources is the size of the committed corpus.
func (v *View) NumSources() int { return len(v.meta.order) }

// PMed returns the shared probabilistic mediated schema.
func (v *View) PMed() *schema.PMedSchema { return v.meta.med.PMed }

// Target returns the shared consolidated mediated schema.
func (v *View) Target() *schema.MediatedSchema { return v.meta.target }

// gather is the one fan-out: it runs fn on every leg concurrently and
// returns the parts in shard order. The context propagates to every leg;
// the first failure cancels the rest, and any failure fails the gather —
// an incomplete part set is never handed to a merge. A one-shard view
// dispatches directly, with no goroutine.
func gather[T any](ctx context.Context, legs []Leg, fn func(context.Context, Leg) (T, error)) ([]T, error) {
	if len(legs) == 1 {
		part, err := fn(ctx, legs[0])
		if err != nil {
			return nil, err
		}
		return []T{part}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]T, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if parts[i], errs[i] = fn(ctx, legs[i]); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return parts, nil
}

// firstError picks the error to surface from a fan-out: the first
// non-cancellation error in shard order (a real failure beats the
// context.Canceled its cancel propagated to the other shards), else the
// first error. Deterministic given deterministic per-shard outcomes.
func firstError(errs []error) error {
	var ret error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ret == nil || (errors.Is(ret, context.Canceled) && !errors.Is(err, context.Canceled)) {
			ret = err
		}
	}
	return ret
}

// RunCtx fans the query out to every shard and merges the partial
// results in global source order: answer.MergeResultSets ranks the
// shards' exact per-source probabilities with the single engine's one
// combine, so the merged ranking is `==`-identical to a single engine
// over the whole corpus, and sums their per-source occurrence counts. No
// leg builds instances. The merge's cost is recorded as
// shard.merge_seconds.
func (v *View) RunCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return v.run(ctx, a, q, answer.CountOnly)
}

// RunInstancesCtx is RunCtx with every leg listing its instances, which
// the merge orders as the single engine does: what by-tuple ranking
// reads.
func (v *View) RunInstancesCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return v.run(ctx, a, q, answer.WithInstances)
}

func (v *View) run(ctx context.Context, a core.Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	parts, err := gather(ctx, v.legs, func(ctx context.Context, l Leg) (*answer.ResultSet, error) {
		return l.Run(ctx, a, q, d)
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rs := answer.MergeResultSets(v.meta.order, parts)
	if v.obs.Enabled() {
		v.obs.Observe("shard.merge_seconds", time.Since(t0).Seconds())
	}
	return rs, nil
}

// ExplainCtx fans provenance out to every shard and merges the
// contributions in the engine's order.
func (v *View) ExplainCtx(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	parts, err := gather(ctx, v.legs, func(ctx context.Context, l Leg) ([]answer.Contribution, error) {
		return l.Explain(ctx, q, values)
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return answer.MergeContributions(parts...), nil
}

// Candidates merges the per-shard feedback question queues into one
// ranking truncated to limit (0 = all). Each shard is asked for only its
// own top limit — merge-equivalent to truncating the full merge (see
// feedback.MergeCandidates) without fetching every queue in full. A
// source lives in exactly one shard, so per-shard dedup is global dedup;
// the instance-overlap signal for unmapped attributes pools values
// shard-locally, which can score proposals slightly differently than one
// global session would — the ranking is advisory, not part of the
// differential contract.
func (v *View) Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error) {
	parts, err := gather(ctx, v.legs, func(ctx context.Context, l Leg) ([]feedback.Candidate, error) {
		return l.Candidates(ctx, limit)
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return feedback.MergeCandidates(limit, parts...), nil
}

// --- mutation path ----------------------------------------------------

// SubmitFeedback routes one feedback item to the shard owning the source.
// The owning shard's commit path applies it, logs it (when durable) and
// publishes the shard's next epoch; no other shard is touched. Feedback
// conditions only the source's p-mappings, never the global mediation,
// so shard-local application is value-identical to the single-core path.
//
// Only a read lock is taken: concurrent submissions proceed in parallel
// to their owning shards, where each shard's group-commit queue batches
// same-shard items under one WAL fsync and one epoch (see
// core.SubmitFeedback). Structural mutations still exclude feedback via
// the write lock, so a source can never be re-homed mid-submission.
func (s *System) SubmitFeedback(fb core.Feedback) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.fbInFlight.Add(1)
	defer s.fbInFlight.Add(-1)
	if _, ok := s.sources[fb.Source]; !ok {
		return fmt.Errorf("shard: %w %q", core.ErrUnknownSource, fb.Source)
	}
	return s.shards[ShardOf(fb.Source, len(s.shards))].Feedback(fb)
}

// AddSources grows the sharded system with a batch of sources under one
// coordination round, reproducing the single-core AddSources decision
// exactly: the global mediation is planned once (core.PlanMediation); on
// the fast path the coordinator builds the newcomers' p-mappings, each
// owner shard adopts its sources in bulk and every other shard swaps in
// the refreshed mediation, otherwise the whole system is set up again
// and every shard receives its new p-mappings. Returns true when the fast path
// applied for the whole batch. A one-element batch is the single add.
//
// The batch is all-or-nothing (see apply); duplicate names — in the batch
// or against the corpus — reject it before anything is planned.
func (s *System) AddSources(srcs []*schema.Source) (bool, error) {
	if len(srcs) == 0 {
		return true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(srcs))
	for _, src := range srcs {
		if seen[src.Name] {
			return false, fmt.Errorf("shard: duplicate source %q in batch", src.Name)
		}
		seen[src.Name] = true
		if _, ok := s.sources[src.Name]; ok {
			return false, fmt.Errorf("shard: source %q already in corpus", src.Name)
		}
	}
	return s.mutate(srcs, "")
}

// RemoveSource drops a source, mirroring the single-core decision:
// unknown sources and the last source are refused, a mediation failure
// on the shrunken corpus aborts with no change, and the fast/rebuild
// split follows the plan. Returns true on the fast path.
func (s *System) RemoveSource(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sources[name]; !ok {
		return false, fmt.Errorf("shard: %w %q", core.ErrUnknownSource, name)
	}
	if len(s.sources) == 1 {
		return false, fmt.Errorf("shard: cannot remove the last source")
	}
	return s.mutate(nil, name)
}

// mutate is the one live structural mutation: plan against the served
// state, then apply. Caller holds the write lock.
func (s *System) mutate(adds []*schema.Source, remove string) (bool, error) {
	s.mutating.Store(true)
	defer s.mutating.Store(false)
	pre := s.meta.Load()
	ch, err := s.plan(pre, adds, remove)
	if err != nil {
		return false, err
	}
	if err := s.apply(pre, ch, false); err != nil {
		return false, err
	}
	return !ch.rebuild, nil
}

// change is one planned structural mutation, or the initial setup: the
// sources whose rows the shards may lack (the batch grown by, or the
// whole corpus at setup), the one source removed, the corpus afterwards
// in global order, and the schema-level state every shard serves
// afterwards — the mediation, the consolidated target, and the
// p-mappings that change: every source's when the clustering changed
// (rebuild), otherwise only the newcomers'.
type change struct {
	adds    []*schema.Source
	remove  string
	srcs    []*schema.Source
	med     *mediate.Result
	target  *schema.MediatedSchema
	maps    map[string][]*pmapping.PMapping
	rebuild bool
}

// plan computes everything a mutation needs before any shard or file is
// touched, so a planning failure (the shrunken corpus has no frequent
// attributes, a newcomer's p-mappings cannot be built, the rebuild's
// Setup fails) leaves memory and disk as they were. pre is the state the
// mutation starts from: the served meta on the live path, the journaled
// one on redo. A fast plan keeps the target and builds only the
// newcomers' p-mappings, through the pipeline Setup runs (core.MapUnder);
// a rebuild takes everything from a global Setup over the new corpus.
func (s *System) plan(pre *servingMeta, adds []*schema.Source, remove string) (*change, error) {
	ch := &change{adds: adds, remove: remove}
	for _, name := range pre.order {
		if name != remove {
			ch.srcs = append(ch.srcs, s.sources[name])
		}
	}
	ch.srcs = append(ch.srcs, adds...)
	corpus, err := schema.NewCorpus(s.domain, ch.srcs)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	med, fast, err := core.PlanMediation(pre.med.PMed, corpus, s.cfg.Mediate)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if !fast {
		blue, err := core.Setup(corpus, s.cfg)
		if err != nil {
			return nil, err
		}
		ch.med, ch.target, ch.maps, ch.rebuild = blue.Med, blue.Target, blue.Maps, true
		return ch, nil
	}
	ch.med, ch.target = med, pre.target
	if len(adds) > 0 {
		added, err := schema.NewCorpus(s.domain, adds)
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		if ch.maps, err = core.MapUnder(added, s.cfg, med); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// errRolledBack marks a mutation whose shard-side application failed and
// was undone: every shard is back at the pre-op state and the journal is
// cleared. Recovery tells it apart from a failure that left the op half
// applied.
var errRolledBack = errors.New("shard: mutation rolled back")

// apply carries a planned change out on the shards: each gets its slice
// of it (see push) — the same floats the oracle computes, since the plan
// ran over the identical corpus.
//
// Durability protocol (DataDir mode): the coordinator journals the op
// before mutating any shard, checkpoints the shards it touched after
// applying, then rewrites the manifest and drops the journal. A crash at
// any stage recovers by running the journaled op through this same
// function (journaled = true: the record is already on disk), which the
// idempotent Restructure makes safe, so the mutation is atomic across
// shards: after recovery it is either fully applied or fully absent.
func (s *System) apply(pre *servingMeta, ch *change, journaled bool) error {
	if !journaled {
		if err := s.journalWrite(ch, pre); err != nil {
			return err
		}
	}
	if err := s.crash("journal"); err != nil {
		return err
	}
	// touched are the shards whose corpus or p-mappings change: every
	// shard on a rebuild, the owners of the added and removed sources on
	// the fast path.
	touched := s.allShards()
	if !ch.rebuild {
		n, owner := len(s.shards), make(map[int]bool)
		for _, src := range ch.adds {
			owner[ShardOf(src.Name, n)] = true
		}
		if ch.remove != "" {
			owner[ShardOf(ch.remove, n)] = true
		}
		touched = touched[:0]
		for i := range s.shards {
			if owner[i] {
				touched = append(touched, i)
			}
		}
	}
	if err := s.push(pre, ch, touched); err != nil {
		return err
	}
	if err := s.crash("applied"); err != nil {
		return err
	}
	s.publish(ch.srcs, ch.med, ch.target)
	if ch.rebuild {
		s.Obs().Add("shard.rebuild", 1)
	}
	if ch.remove != "" {
		s.Obs().Add("shard.remove_source", 1)
	} else {
		s.Obs().Add("shard.add_sources", 1)
		s.Obs().Add("shard.add_sources.ops", int64(len(ch.adds)))
	}
	return s.finishDurable(touched)
}

// push sends every shard its slice of ch, the touched ones first in
// ascending order. On the fast path a batch is all-or-nothing in memory
// too: a touched shard that fails rolls back every touched shard before
// it (each returns to its pre-op corpus under pre's mediation, keeping
// its own p-mappings) and the journal is cleared — the failure is
// deterministic, so a redo after a crash there fails and rolls back the
// same way. A failed rebuild (or setup) is left to the journal's redo.
func (s *System) push(pre *servingMeta, ch *change, touched []int) error {
	seen := make(map[int]bool, len(touched))
	for done, i := range touched {
		seen[i] = true
		err := s.shards[i].Restructure(s.slice(ch, i))
		if err == nil {
			continue
		}
		if ch.rebuild {
			return err
		}
		for _, t := range touched[:done] {
			undo := Change{Domain: s.domain, Sources: sliceOf(pre.order, t, len(s.shards)), Med: pre.med, Target: pre.target}
			if derr := s.shards[t].Restructure(undo); derr != nil {
				return derr
			}
		}
		s.journalDrop()
		return fmt.Errorf("%w: %w", errRolledBack, err)
	}
	for i, sh := range s.shards {
		if seen[i] {
			continue
		}
		if err := sh.Restructure(s.slice(ch, i)); err != nil {
			return err
		}
	}
	return nil
}

// slice is shard i's Change out of ch: its sources in global order, the
// rows of its newcomers, and the p-mappings of its sources that change.
func (s *System) slice(ch *change, i int) Change {
	n := len(s.shards)
	out := Change{Domain: s.domain, Med: ch.med, Target: ch.target, Maps: map[string][]*pmapping.PMapping{}}
	for _, src := range ch.srcs {
		if ShardOf(src.Name, n) != i {
			continue
		}
		out.Sources = append(out.Sources, src.Name)
		if pms, ok := ch.maps[src.Name]; ok {
			out.Maps[src.Name] = pms
		}
	}
	for _, src := range ch.adds {
		if ShardOf(src.Name, n) == i {
			out.Add = append(out.Add, src)
		}
	}
	return out
}

// sliceOf filters a global source order down to shard i of n.
func sliceOf(order []string, i, n int) []string {
	var out []string
	for _, name := range order {
		if ShardOf(name, n) == i {
			out = append(out, name)
		}
	}
	return out
}
