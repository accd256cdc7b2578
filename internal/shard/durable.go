package shard

// Durability for the sharded coordinator. Single-shard mutations
// (feedback) ride each shard's own WAL, exactly like the single-core
// store. Multi-shard mutations (add/remove source, rebuilds) cannot: a
// WAL replay inside one shard would recompute shard-local mediation,
// which is wrong by construction. They are made atomic with a
// coordinator journal instead:
//
//	1. journal the op (with the pre-op mediation and source order)
//	2. apply to the shards in memory
//	3. checkpoint the touched shards' stores
//	4. rewrite the manifest, drop the journal
//
// A crash before 1 loses nothing; a crash at any later point leaves the
// journal in place, and Open redoes the op from scratch — the redo
// recomputes the same deterministic decision (fast vs rebuild) from the
// journaled pre-op state and applies it idempotently, so recovery lands
// on the fully-applied state no matter which stage the crash hit. If the
// op had failed deterministically (it was journaled but could not
// apply), the redo fails the same way and rolls back to the pre-op
// state. Either way the mutation is atomic: fully applied or fully
// absent, never half.
//
// Untouched shards keep serving probabilities that are stale on disk
// (the fast path refreshes them in memory only); every Open reconciles
// by recounting AssignProbabilities over the reconstructed corpus, which
// reproduces the serving values bit-for-bit — Generate's probabilities
// are themselves AssignProbabilities counts, so the recount is an
// identity, not an approximation.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"udi/internal/core"
	"udi/internal/mediate"
	"udi/internal/persist"
	"udi/internal/schema"
)

const (
	manifestFile    = "MANIFEST.json"
	journalFile     = "JOURNAL.json"
	manifestVersion = 1
)

// manifest records the fixed shard layout and the committed global
// source order. Rewritten atomically after every multi-shard mutation.
type manifest struct {
	Version int      `json:"version"`
	Domain  string   `json:"domain"`
	Shards  int      `json:"shards"`
	Order   []string `json:"order"`
}

// journalRecord captures everything a redo needs to replay one
// multi-shard op deterministically: the ops themselves (every add of one
// AddSources batch, or the one remove) plus the pre-op global order and
// p-med-schema (schema sequence and probabilities — the sequence matters
// because shard Maps are indexed by it). One record is one atomic journal
// write — the coordinator analogue of the WAL's group-commit Append.
// Journals written by older builds carry a single op in Op instead;
// readJournal lifts it into Ops.
type journalRecord struct {
	Op      *core.Op     `json:"op,omitempty"`
	Ops     []core.Op    `json:"ops,omitempty"`
	Order   []string     `json:"order"`
	Schemas [][][]string `json:"schemas"`
	Probs   []float64    `json:"probs"`
}

func (s *System) durable() bool { return s.opts.DataDir != "" }

// journalWrite makes the change durable before any shard changes.
// In-memory systems skip it.
func (s *System) journalWrite(ch *change, pre *servingMeta) error {
	if !s.durable() {
		return nil
	}
	rec := journalRecord{Order: pre.order, Schemas: pre.med.PMed.Clusters(), Probs: pre.med.PMed.Probs}
	for _, src := range ch.adds {
		d := core.DataOf(src)
		rec.Ops = append(rec.Ops, core.Op{Kind: core.OpAddSource, Add: &d})
	}
	if ch.remove != "" {
		rec.Ops = append(rec.Ops, core.Op{Kind: core.OpRemoveSource, Remove: ch.remove})
	}
	return persist.WriteFileAtomic(filepath.Join(s.opts.DataDir, journalFile), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&rec)
	})
}

func (s *System) journalDrop() {
	if !s.durable() {
		return
	}
	os.Remove(filepath.Join(s.opts.DataDir, journalFile))
}

// finishDurable completes a multi-shard mutation: checkpoint every
// touched shard, rewrite the manifest with the committed order, drop the
// journal. The crash hooks mark the recovery-relevant boundaries the
// fault-injection tests exercise.
func (s *System) finishDurable(touched []int) error {
	if !s.durable() {
		return nil
	}
	for _, i := range touched {
		if err := s.shards[i].Checkpoint(); err != nil {
			return err
		}
	}
	if err := s.crash("checkpointed"); err != nil {
		return err
	}
	man := manifest{Version: manifestVersion, Domain: s.domain, Shards: len(s.shards), Order: s.meta.Load().order}
	err := persist.WriteFileAtomic(filepath.Join(s.opts.DataDir, manifestFile), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&man)
	})
	if err != nil {
		return err
	}
	if err := s.crash("manifest"); err != nil {
		return err
	}
	s.journalDrop()
	return nil
}

// Checkpoint forces every shard store to snapshot and truncate its WAL.
func (s *System) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		if err := sh.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard (each store's WAL file).
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- recovery ---------------------------------------------------------

// Open recovers (or initializes) a durable sharded system in dir. With
// no manifest present, setup provides the initial corpus and the layout
// is created fresh. Otherwise every shard is restored from its own
// snapshot + WAL (replaying shard-local feedback), a pending journal is
// redone, and the cross-shard mediation is reconciled so all shards
// serve identical, freshly recounted schema probabilities.
func Open(dir string, cfg core.Config, opts Options, setup func() (*schema.Corpus, error)) (*System, error) {
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		c, err := setup()
		if err != nil {
			return nil, err
		}
		opts.DataDir = dir
		return New(c, cfg, opts)
	}
	if err != nil {
		return nil, err
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("shard: %w: manifest version %d", persist.ErrCorrupt, man.Version)
	}
	if opts.Shards == 0 {
		opts.Shards = man.Shards
	}
	if opts.Shards != man.Shards {
		return nil, fmt.Errorf("shard: data dir has %d shards, -shards requests %d (resharding is not supported)",
			man.Shards, opts.Shards)
	}
	opts.DataDir = dir
	n := man.Shards
	s := &System{cfg: cfg, opts: opts, domain: man.Domain}
	r := &recovery{s: s}

	// Load every shard that has a checkpoint; the rest are empty. (A crash
	// between deleting an emptied shard's snapshot and its WAL can strand
	// the WAL; the shard's next first-source checkpoint resets the
	// directory before opening a store in it.)
	var seed *core.System
	for i := 0; i < n; i++ {
		l := s.newLocal(i)
		r.locals, s.shards = append(r.locals, l), append(s.shards, l)
		if err := l.Open(); err != nil {
			s.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if seed == nil {
			seed = l.Sys()
		}
	}
	if seed == nil {
		return nil, fmt.Errorf("shard: %w: no shard has a snapshot", persist.ErrCorrupt)
	}
	// Empty shards bootstrap zero-source cores seeded with an arbitrary
	// loaded shard's mediation; redo/reconcile pushes the authoritative one.
	for _, l := range r.locals {
		if l.Sys() != nil {
			continue
		}
		if err := l.Restructure(Change{Domain: man.Domain, Med: seed.Med, Target: seed.Target}); err != nil {
			s.Close()
			return nil, err
		}
	}

	order := man.Order
	jr, err := readJournal(dir)
	switch {
	case err == nil:
		order, err = r.redo(jr, seed.Target)
	case os.IsNotExist(err):
		err = r.reconcile(order)
	}
	if err == nil {
		err = r.validate(order)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recovery is Open's working state: the system being rebuilt plus the
// concrete in-process shards, whose loaded corpora recovery must read.
type recovery struct {
	s      *System
	locals []*Local
}

// find returns the named source from the shard it hashes to, or nil.
func (r *recovery) find(name string) *schema.Source {
	for _, src := range r.locals[ShardOf(name, len(r.locals))].Sys().Corpus.Sources {
		if src.Name == name {
			return src
		}
	}
	return nil
}

// reconcile rebuilds the shared serving mediation after a restart: all
// shards must agree on the clustering (they always do — every committed
// mutation pushes one mediation to all of them), and the probabilities
// are recounted over the reconstructed global corpus, which reproduces
// the last served values exactly (see the package comment). It also
// publishes the corpus and meta.
func (r *recovery) reconcile(order []string) error {
	srcs := make([]*schema.Source, 0, len(order))
	for _, name := range order {
		src := r.find(name)
		if src == nil {
			return fmt.Errorf("shard: %w: source %q missing from shard %d", persist.ErrCorrupt, name, ShardOf(name, len(r.locals)))
		}
		srcs = append(srcs, src)
	}
	corpus, err := schema.NewCorpus(r.s.domain, srcs)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// All shards must hold the same schema sequence: Maps are indexed by
	// it, and the recounted probabilities are assigned positionally.
	var ref *core.System
	for _, l := range r.locals {
		sys := l.Sys()
		if len(sys.Corpus.Sources) == 0 {
			continue
		}
		if ref == nil {
			ref = sys
			continue
		}
		if !ref.Med.PMed.SameSequence(sys.Med.PMed) {
			return fmt.Errorf("shard: %w: shards disagree on the mediated clustering", persist.ErrCorrupt)
		}
	}
	probs := mediate.AssignProbabilities(ref.Med.PMed.Schemas, corpus)
	pmed, err := schema.NewPMedSchema(ref.Med.PMed.Schemas, probs)
	if err != nil {
		return fmt.Errorf("shard: %w: reconciled probabilities invalid: %v", persist.ErrCorrupt, err)
	}
	med := &mediate.Result{PMed: pmed}
	for i, sh := range r.s.shards {
		if err := sh.Restructure(Change{Domain: r.s.domain, Sources: sliceOf(order, i, len(r.s.shards)), Med: med, Target: ref.Target}); err != nil {
			return err
		}
	}
	r.s.publish(srcs, med, ref.Target)
	return nil
}

// redo rolls a journaled multi-shard op forward by running it through
// the live mutation path again. The journal holds the pre-op order and
// mediation; the shards on disk hold either the pre-op state (crash
// before a checkpoint) or the post-op state (crash after), and
// Restructure absorbs that difference: a Change says what each shard
// becomes, whichever state it starts from. The plan recomputes the same
// deterministic fast/rebuild decision the original made, so recovery
// lands on the fully-applied state no matter which stage the crash hit.
// Returns the committed global order.
func (r *recovery) redo(jr *journalRecord, target *schema.MediatedSchema) ([]string, error) {
	s := r.s
	prePMed, err := schema.PMedFromClusters(jr.Schemas, jr.Probs)
	if err != nil {
		return nil, fmt.Errorf("shard: %w: journal p-med-schema: %v", persist.ErrCorrupt, err)
	}
	// The consolidated target is not journaled: the fast path keeps it and
	// every loaded shard carries it.
	pre := &servingMeta{order: jr.Order, med: &mediate.Result{PMed: prePMed}, target: target}

	// Pre-op sources come from the loaded shards (which hold every source
	// the post-op corpus keeps, at every crash stage); an added source
	// comes from the op payload, never from disk.
	var adds []*schema.Source
	remove := ""
	for i, op := range jr.Ops {
		switch {
		case op.Kind == core.OpAddSource && op.Add != nil && remove == "":
			src, err := op.Add.Source()
			if err != nil {
				return nil, fmt.Errorf("shard: %w: journal source %q: %v", persist.ErrCorrupt, op.Add.Name, err)
			}
			adds = append(adds, src)
		case op.Kind == core.OpRemoveSource && len(jr.Ops) == 1:
			remove = op.Remove
		default:
			return nil, fmt.Errorf("shard: %w: journal op %d kind %q", persist.ErrCorrupt, i, op.Kind)
		}
	}
	s.sources = make(map[string]*schema.Source, len(jr.Order))
	known := remove == ""
	for _, name := range jr.Order {
		if name == remove {
			known = true
			continue
		}
		if s.sources[name] = r.find(name); s.sources[name] == nil {
			return nil, fmt.Errorf("shard: %w: source %q missing during redo", persist.ErrCorrupt, name)
		}
	}
	if !known {
		return nil, fmt.Errorf("shard: %w: journal removes unknown source %q", persist.ErrCorrupt, remove)
	}

	// The journal is only ever written after planning succeeded pre-crash,
	// so a planning failure here means the directory is damaged.
	ch, err := s.plan(pre, adds, remove)
	if err != nil {
		return nil, fmt.Errorf("shard: %w: redo plan: %v", persist.ErrCorrupt, err)
	}
	err = s.apply(pre, ch, true)
	if errors.Is(err, errRolledBack) {
		// The op was journaled but fails to apply, exactly as it would have
		// pre-crash: apply restored the pre-op state and cleared the
		// journal, so serve that.
		return jr.Order, r.reconcile(jr.Order)
	}
	if err != nil {
		return nil, err
	}
	s.Obs().Add("shard.redo", 1)
	return s.meta.Load().order, nil
}

// validate cross-checks the recovered layout: every source sits in
// exactly the shard its name hashes to, and no shard holds a source the
// order does not list.
func (r *recovery) validate(order []string) error {
	n := len(r.locals)
	want := make(map[string]bool, len(order))
	for _, name := range order {
		want[name] = true
	}
	total := 0
	for i, l := range r.locals {
		for _, src := range l.Sys().Corpus.Sources {
			if !want[src.Name] {
				return fmt.Errorf("shard: %w: shard %d holds unlisted source %q", persist.ErrCorrupt, i, src.Name)
			}
			if ShardOf(src.Name, n) != i {
				return fmt.Errorf("shard: %w: source %q found in shard %d, hashes to %d",
					persist.ErrCorrupt, src.Name, i, ShardOf(src.Name, n))
			}
			total++
		}
	}
	if total != len(order) {
		return fmt.Errorf("shard: %w: shards hold %d sources, manifest lists %d", persist.ErrCorrupt, total, len(order))
	}
	return nil
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("shard: %w: manifest: %v", persist.ErrCorrupt, err)
	}
	return &man, nil
}

func readJournal(dir string) (*journalRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	var jr journalRecord
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("shard: %w: journal: %v", persist.ErrCorrupt, err)
	}
	if jr.Op != nil && len(jr.Ops) == 0 {
		jr.Ops = []core.Op{*jr.Op}
	}
	return &jr, nil
}
