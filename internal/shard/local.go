package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/persist"
	"udi/internal/sqlparse"
)

// Local is the in-process transport and the one implementation of the
// Shard verbs: an ordinary core.System over the shard's sources, driven
// through core.ShardRestructure (which carries the checks the contract
// asks for), plus — given a directory — the shard's own persist.Store.
// Feedback rides that store's WAL exactly like a single-core store;
// structural state is checkpointed when the coordinator asks. The coordinator in this package holds one per shard;
// a shard host (internal/shardrpc) serves one over HTTP.
//
// The verbs are called one at a time (under the coordinator's write lock,
// or the host's mutex); Sys and Store are safe from any goroutine.
type Local struct {
	cfg core.Config
	// dir is the shard's store directory, "" when in-memory.
	dir   string
	sopts persist.StoreOptions
	// sys is nil until the first Restructure bootstraps it or Open loads
	// it; the verbs keep the pointer, and with it the attached store and a
	// monotone epoch, for the shard's whole life.
	sys atomic.Pointer[core.System]
	// store is nil while the shard holds no source: an empty corpus has
	// no checkpointable state, so an empty shard keeps no files at all.
	store atomic.Pointer[persist.Store]
}

// NewLocal builds a shard with no state yet; it arrives with the first
// Restructure, or from dir (when set) on Open.
func NewLocal(cfg core.Config, dir string, sopts persist.StoreOptions) *Local {
	return &Local{cfg: cfg, dir: dir, sopts: sopts}
}

func shardDir(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%03d", i))
}

// newLocal builds shard i's transport.
func (s *System) newLocal(i int) *Local {
	if !s.durable() {
		return NewLocal(s.cfg, "", persist.StoreOptions{})
	}
	return NewLocal(s.cfg, shardDir(s.opts.DataDir, i),
		persist.StoreOptions{CheckpointEvery: s.opts.CheckpointEvery, NoSync: s.opts.NoSync, Obs: s.cfg.Obs})
}

// Open warm-starts the shard from its directory: snapshot plus WAL-tail
// replay of the feedback logged since. A directory without a snapshot
// (in-memory, never written, or emptied) leaves the shard stateless.
func (l *Local) Open() error {
	if l.dir == "" || !persist.HasSnapshot(l.dir) {
		return nil
	}
	sys, st, err := persist.OpenStore(l.dir, l.cfg, l.sopts, func() (*core.System, error) {
		return nil, fmt.Errorf("shard: %w: snapshot in %s disappeared during open", persist.ErrCorrupt, l.dir)
	})
	if err != nil {
		return err
	}
	l.sys.Store(sys)
	l.store.Store(st)
	return nil
}

// Sys returns the served system, nil before any state arrived.
func (l *Local) Sys() *core.System { return l.sys.Load() }

// Store returns the attached store, nil when in-memory or empty.
func (l *Local) Store() *persist.Store { return l.store.Load() }

func (l *Local) Pin() Leg {
	sys := l.Sys()
	return localLeg{sn: sys.Snapshot(), sys: sys}
}

func (l *Local) Feedback(fb core.Feedback) error { return l.Sys().SubmitFeedback(fb) }

func (l *Local) Restructure(ch Change) error {
	if sys := l.Sys(); sys != nil {
		return sys.ShardRestructure(ch)
	}
	sys, err := core.RestoreShard(ch, l.cfg)
	if err != nil {
		return err
	}
	l.sys.Store(sys)
	return nil
}

// Checkpoint makes the shard's in-memory state its on-disk snapshot. The
// first source opens the store (first checkpoint included) over a
// directory reset first, so a WAL stranded there by a crash is never
// replayed against the fresh state; the last source leaving deletes the
// files — persist.HasSnapshot then classifies the directory as empty.
func (l *Local) Checkpoint() error {
	sys := l.Sys()
	switch {
	case l.dir == "" || sys == nil:
		return nil
	case len(sys.Snapshot().Corpus.Sources) == 0:
		if err := l.Close(); err != nil {
			return err
		}
		return persist.RemoveStoreFiles(l.dir)
	case l.Store() != nil:
		return l.Store().Checkpoint()
	}
	if err := persist.RemoveStoreFiles(l.dir); err != nil {
		return err
	}
	_, st, err := persist.OpenStore(l.dir, l.cfg, l.sopts, func() (*core.System, error) { return sys, nil })
	l.store.Store(st)
	return err
}

// Close releases the store's WAL file.
func (l *Local) Close() error {
	if st := l.store.Swap(nil); st != nil {
		return st.Close()
	}
	return nil
}

// localLeg pins one epoch snapshot: every read of the view sees it.
type localLeg struct {
	sn  *core.Snapshot
	sys *core.System
}

func (l localLeg) Epoch() uint64        { return l.sn.Epoch }
func (l localLeg) CreatedAt() time.Time { return l.sn.CreatedAt }

func (l localLeg) Run(ctx context.Context, a core.Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	return l.sn.ScanCtx(ctx, a, q, d)
}

func (l localLeg) Explain(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	return l.sn.ExplainCtx(ctx, q, values)
}

// Candidates ranks in memory with nothing to interrupt, so the context
// only stops a leg that has not started.
func (l localLeg) Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return feedback.NewSession(l.sys, nil).CandidatesIn(l.sn, limit), nil
}
