package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/mediate"
	"udi/internal/persist"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// localShard is the in-process transport: an ordinary core.System over
// the shard's sources, driven through core's shard-host primitives, plus
// — when the coordinator is durable — the shard's own persist.Store.
// Feedback rides that store's WAL exactly like a single-core store;
// structural state is checkpointed when the coordinator asks.
type localShard struct {
	// sys is nil until the first Replace (a freshly set-up system) or set
	// by recovery; the in-place verbs keep the pointer, and with it the
	// attached store and a monotone epoch, for the shard's whole life.
	sys *core.System
	cfg core.Config
	// dir is the shard's store directory, "" when in-memory. store is nil
	// while the shard holds no source: an empty corpus has no
	// checkpointable state, so an empty shard keeps no files at all.
	dir   string
	sopts persist.StoreOptions
	store *persist.Store
}

func shardDir(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%03d", i))
}

// newLocal builds shard i's transport; its state arrives with the first
// Replace, or from disk during recovery.
func (s *System) newLocal(i int) *localShard {
	l := &localShard{cfg: s.cfg}
	if s.durable() {
		l.dir = shardDir(s.opts.DataDir, i)
		l.sopts = persist.StoreOptions{CheckpointEvery: s.opts.CheckpointEvery, NoSync: s.opts.NoSync, Obs: s.cfg.Obs}
	}
	return l
}

func (l *localShard) Pin() Leg { return localLeg{sn: l.sys.Snapshot(), sys: l.sys} }

func (l *localShard) Feedback(fb core.Feedback) error { return l.sys.SubmitFeedback(fb) }

// find returns the named source from the shard's corpus, or nil. Only
// called under the coordinator's write lock (or during recovery), where
// reading the writer-side corpus is safe.
func (l *localShard) find(name string) *schema.Source {
	for _, src := range l.sys.Corpus.Sources {
		if src.Name == name {
			return src
		}
	}
	return nil
}

func (l *localShard) Adopt(srcs []*schema.Source, med *mediate.Result) error {
	missing := make([]*schema.Source, 0, len(srcs))
	for _, src := range srcs {
		if l.find(src.Name) == nil {
			missing = append(missing, src)
		}
	}
	if len(missing) == 0 {
		return l.sys.ShardSetMediation(med)
	}
	return l.sys.ShardAdoptSources(missing, med)
}

func (l *localShard) Drop(name string, med *mediate.Result) error {
	if l.find(name) == nil {
		return l.sys.ShardSetMediation(med)
	}
	return l.sys.ShardDropSource(name, med)
}

func (l *localShard) SetMediation(med *mediate.Result) error { return l.sys.ShardSetMediation(med) }

func (l *localShard) Replace(proj *core.System) error {
	if l.sys == nil {
		l.sys = proj
		return nil
	}
	return l.sys.ShardReplaceState(proj)
}

// Checkpoint makes the shard's in-memory state its on-disk snapshot:
// opening the store (first checkpoint included) when the shard just
// gained its first source, and deleting its files when the last one left
// — persist.HasSnapshot then classifies the directory as empty.
func (l *localShard) Checkpoint() error {
	switch {
	case l.dir == "":
		return nil
	case len(l.sys.Corpus.Sources) == 0:
		if err := l.Close(); err != nil {
			return err
		}
		return persist.RemoveStoreFiles(l.dir)
	case l.store != nil:
		return l.store.Checkpoint()
	}
	_, st, err := persist.OpenStore(l.dir, l.cfg, l.sopts, func() (*core.System, error) { return l.sys, nil })
	l.store = st
	return err
}

// Close releases the store's WAL file.
func (l *localShard) Close() error {
	if l.store == nil {
		return nil
	}
	st := l.store
	l.store = nil
	return st.Close()
}

// localLeg pins one epoch snapshot: every read of the view sees it.
type localLeg struct {
	sn  *core.Snapshot
	sys *core.System
}

func (l localLeg) Epoch() uint64        { return l.sn.Epoch }
func (l localLeg) CreatedAt() time.Time { return l.sn.CreatedAt }

func (l localLeg) Run(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return l.sn.RunCtx(ctx, a, q)
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

// sourcesFor filters the global source list down to shard i of n,
// preserving global order.
func sourcesFor(sources []*schema.Source, i, n int) []*schema.Source {
	var out []*schema.Source
	for _, src := range sources {
		if ShardOf(src.Name, n) == i {
			out = append(out, src)
		}
	}
	return out
}

// project builds one shard's core from a globally set-up blueprint: the
// sub-corpus in global order, the blueprint's p-mappings and consolidated
// mappings for exactly those sources, and the shared global mediation. An
// empty subset yields a servable zero-source core.
func project(domain string, cfg core.Config, blue *core.System, subs []*schema.Source) (*core.System, error) {
	if len(subs) == 0 {
		return core.NewEmptyShard(domain, cfg, blue.Med, blue.Target)
	}
	subCorpus, err := schema.NewCorpus(domain, subs)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	maps := make(map[string][]*pmapping.PMapping, len(subs))
	cons := make(map[string]*consolidate.PMapping, len(subs))
	for _, src := range subs {
		maps[src.Name] = blue.Maps[src.Name]
		if cpm, ok := blue.ConsMaps[src.Name]; ok {
			cons[src.Name] = cpm
		}
	}
	return core.Restore(subCorpus, cfg, blue.Med, maps, blue.Target, cons)
}
