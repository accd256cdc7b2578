// Package replica implements WAL-shipped read replicas: a Follower
// bootstraps from a shard host's snapshot endpoint, then tails the
// host's committed write-ahead log over HTTP and replays each record
// through the exact code path the host's own crash recovery uses
// (persist.Replay). Reads are served lock-free from the replayed system's
// epoch-stamped snapshots; every mutation is refused with a typed
// read_only error pointing at the primary.
//
// The follower's invariants:
//
//   - Only committed records are replayed: the primary's /v1/wal serves
//     the tail up to its committed watermark, and compensated (aborted)
//     sequences are skipped with the same two-phase pass recovery uses.
//   - Replay is idempotent across polls: a record with a sequence at or
//     below the applied watermark is skipped, so a re-fetched frame is
//     never applied twice.
//   - Structural changes on the primary (restructures) are not
//     WAL-logged; they bump the primary's state generation, which the
//     follower detects and answers with a full re-bootstrap. The same applies to a WAL truncated by checkpoint
//     rotation (HTTP 410) and to a desynchronized watermark (HTTP 416).
//   - A corrupt or truncated WAL response applies nothing: frames are
//     CRC-validated as a whole before the first record is replayed.
package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/schema"
	"udi/internal/shardrpc"
	"udi/internal/wal"
)

// Options configures a Follower.
type Options struct {
	// PollInterval is the WAL polling cadence for Run (default 500ms).
	PollInterval time.Duration
	// MaxBytes bounds one WAL fetch (0 = the whole available tail).
	MaxBytes int64
	// Client configures the connection to the primary.
	Client client.Options
	// Obs receives replica.* metrics; nil uses obs.Default.
	Obs *obs.Registry
}

// syncState is the follower's replication position, published atomically
// so the read path never blocks on a sync pass.
type syncState struct {
	appliedSeq       uint64
	stateGen         uint64
	primaryCommitted uint64
	primaryEpoch     uint64
	lastSyncAt       time.Time
	synced           bool
}

// Follower tails one primary. Create with New, drive with Sync (one
// pass) or Run (poll loop), serve with Backend.
type Follower struct {
	primary string
	cfg     core.Config
	c       *client.Client
	opts    Options
	reg     *obs.Registry

	// mu serializes sync passes; readers never take it.
	mu    sync.Mutex
	sys   atomic.Pointer[core.System]
	state atomic.Pointer[syncState]
}

// New builds a follower for the shard host (or single-shard primary) at
// addr. No network traffic happens until the first Sync.
func New(addr string, cfg core.Config, opts Options) *Follower {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default
	}
	if cfg.Obs == nil {
		cfg.Obs = reg
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	f := &Follower{primary: addr, cfg: cfg, c: client.New(addr, opts.Client), opts: opts, reg: reg}
	f.state.Store(&syncState{})
	return f
}

// Primary returns the followed address.
func (f *Follower) Primary() string { return f.primary }

// AppliedSeq returns the last WAL sequence replayed into serving state.
func (f *Follower) AppliedSeq() uint64 { return f.state.Load().appliedSeq }

// Synced reports whether the follower has bootstrapped at least once.
func (f *Follower) Synced() bool { return f.state.Load().synced }

// Sync performs one replication pass: health-check the primary,
// re-bootstrap if required (first sync, structural state change,
// truncated WAL), otherwise replay the committed WAL tail until the
// follower has caught up to the primary's watermark.
func (f *Follower) Sync(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	var status shardrpc.StatusResponse
	if err := f.c.Get(ctx, "/v1/shard/status", &status); err != nil {
		return fmt.Errorf("replica: primary status: %w", err)
	}
	if status.Proto != shardrpc.Version {
		return fmt.Errorf("replica: primary speaks protocol %d, follower speaks %d", status.Proto, shardrpc.Version)
	}
	if !status.Ready {
		return fmt.Errorf("replica: primary has no state yet")
	}

	st := f.state.Load()
	needBootstrap := f.sys.Load() == nil || status.StateGen != st.stateGen
	if !needBootstrap && !status.Durable && status.Epoch != st.primaryEpoch {
		// A non-durable primary has no WAL to ship; any epoch movement is
		// only reachable by re-reading the full state.
		needBootstrap = true
	}
	if needBootstrap {
		if err := f.bootstrap(ctx); err != nil {
			return err
		}
		st = f.state.Load()
	}
	if status.Durable && status.CommittedSeq > st.appliedSeq {
		if err := f.replayTail(ctx); err != nil {
			return err
		}
	}
	f.finishSync(status)
	return nil
}

// finishSync publishes the post-pass replication position.
func (f *Follower) finishSync(status shardrpc.StatusResponse) {
	prev := f.state.Load()
	next := *prev
	next.primaryCommitted = status.CommittedSeq
	next.primaryEpoch = status.Epoch
	next.lastSyncAt = time.Now()
	next.synced = true
	f.state.Store(&next)
}

// bootstrap loads a full snapshot from the primary and restarts the
// applied watermark at the sequence the snapshot covers.
func (f *Follower) bootstrap(ctx context.Context) error {
	body, hdr, err := f.c.GetBinary(ctx, "/v1/shard/state")
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	sys, seq, err := persist.LoadWithSeq(bytes.NewReader(body), f.cfg)
	if err != nil {
		return fmt.Errorf("replica: bootstrap snapshot: %w", err)
	}
	gen, _ := strconv.ParseUint(hdr.Get("X-UDI-State-Gen"), 10, 64)
	f.sys.Store(sys)
	prev := f.state.Load()
	next := *prev
	next.appliedSeq = seq
	next.stateGen = gen
	f.state.Store(&next)
	f.reg.Add("replica.bootstraps", 1)
	return nil
}

// replayTail fetches and replays committed WAL frames until the primary
// reports nothing newer. A 410 (checkpoint folded our position away) or
// 416 (we are somehow ahead — desynchronized) answer triggers one
// re-bootstrap instead of replay.
func (f *Follower) replayTail(ctx context.Context) error {
	for {
		st := f.state.Load()
		path := fmt.Sprintf("/v1/wal?from=%d", st.appliedSeq)
		if f.opts.MaxBytes > 0 {
			path += fmt.Sprintf("&max_bytes=%d", f.opts.MaxBytes)
		}
		body, hdr, err := f.c.GetBinary(ctx, path)
		if err != nil {
			var se *httpapi.StatusError
			if errors.As(err, &se) && (se.Code == httpapi.CodeWALTruncated || se.Code == httpapi.CodeWALBeyondTail) {
				f.reg.Add("replica.rebootstraps", 1)
				return f.bootstrap(ctx)
			}
			return fmt.Errorf("replica: wal fetch: %w", err)
		}
		if gen, _ := strconv.ParseUint(hdr.Get("X-UDI-State-Gen"), 10, 64); gen != st.stateGen {
			// A structural change landed between our fetches; the frames in
			// hand may predate it. Re-bootstrap rather than mix states.
			f.reg.Add("replica.rebootstraps", 1)
			return f.bootstrap(ctx)
		}
		committed, _ := strconv.ParseUint(hdr.Get("X-UDI-Committed"), 10, 64)
		if len(body) == 0 {
			return nil
		}
		recs, err := wal.ReadFrames(body)
		if err != nil {
			// Nothing was applied: frames validate as a whole before replay.
			f.reg.Add("replica.corrupt_fetches", 1)
			return fmt.Errorf("replica: wal frames: %w", err)
		}
		if err := f.apply(recs); err != nil {
			return err
		}
		if f.state.Load().appliedSeq >= committed {
			return nil
		}
	}
}

// apply replays one fetched batch through persist.Replay — recovery's own
// loop: compensated sequences skipped, anything at or below the applied
// watermark skipped (idempotence across overlapping fetches). The
// watermark advances past whatever was applied even when a later record
// fails, so a retry never applies a record twice.
func (f *Follower) apply(recs []wal.Record) error {
	st := f.state.Load()
	applied, replayed, _, err := persist.Replay(f.sys.Load(), recs, st.appliedSeq)
	next := *st
	next.appliedSeq = applied
	f.state.Store(&next)
	f.reg.Add("replica.records_applied", int64(replayed))
	if err != nil {
		return fmt.Errorf("replica: replay: %w", err)
	}
	return nil
}

// Run polls Sync until the context ends. Sync errors are counted and
// retried on the next tick — a replica rides out primary restarts.
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if err := f.Sync(ctx); err != nil {
				f.reg.Add("replica.sync_errors", 1)
			}
		}
	}
}

// Backend returns the read-only httpapi.Backend this replica serves:
// reads come from the replayed system's lock-free snapshots, mutations
// are refused with read_only, and /v1/schema reports the replication
// position and staleness.
func (f *Follower) Backend() httpapi.Backend { return replicaBackend{f: f} }

type replicaBackend struct{ f *Follower }

func (b replicaBackend) View() (httpapi.View, error) {
	sys := b.f.sys.Load()
	if sys == nil {
		return nil, &httpapi.StatusError{Status: http.StatusServiceUnavailable, Code: httpapi.CodeNotReady,
			Message: "replica has not completed its first sync"}
	}
	return httpapi.CoreBackend(sys).View()
}

func (b replicaBackend) Committing() bool { return false }

func readOnly() error {
	return &httpapi.StatusError{Status: http.StatusForbidden, Code: httpapi.CodeReadOnly,
		Message: "replica is read-only; send writes to the primary"}
}

func (b replicaBackend) SubmitFeedback(core.Feedback) error        { return readOnly() }
func (b replicaBackend) AddSources([]*schema.Source) (bool, error) { return false, readOnly() }
func (b replicaBackend) RemoveSource(string) (bool, error)         { return false, readOnly() }
func (b replicaBackend) Shards() int                               { return 0 }
func (b replicaBackend) Routing() *httpapi.RoutingStatus           { return nil }

func (b replicaBackend) Replication() *httpapi.ReplicationStatus {
	st := b.f.state.Load()
	return &httpapi.ReplicationStatus{
		Primary:             b.f.primary,
		AppliedSeq:          st.appliedSeq,
		PrimaryCommittedSeq: st.primaryCommitted,
		PrimaryEpoch:        st.primaryEpoch,
		LastSyncAt:          st.lastSyncAt,
		SyncedOnce:          st.synced,
	}
}
