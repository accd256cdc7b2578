package httpapi

import (
	"context"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/sqlparse"
)

// Backend is the one serving contract every deployment topology
// implements: the single-process core.System, the scatter-gather
// coordinator shard.System (over in-process shards, or over remote shard
// hosts when internal/shardrpc builds it), and WAL-following read
// replicas (internal/replica). The HTTP layer is written against this interface
// alone, so each topology serves the identical /v1 surface with the
// identical error envelope.
//
// Reads go through a View — one epoch-consistent capture of the serving
// state — and writes route through the Backend itself. Contract:
//
//   - View returns a consistent read view or a typed error. A backend
//     that cannot serve (replica not yet bootstrapped, coordinator with
//     an unreachable shard) returns a *StatusError (CodeNotReady,
//     CodeShardUnavailable) rather than a partial view.
//   - Mutations (SubmitFeedback, AddSources, RemoveSource) are atomic:
//     they either commit a new epoch or leave state unchanged. Read-only
//     backends (replicas) reject them with CodeReadOnly.
//   - Epochs are monotone: a successful mutation makes a later View
//     observe a strictly larger Epoch.
//   - Replication and Routing report topology-specific state for
//     /v1/schema; nil means "not applicable" and the field is omitted.
//     Durability is process-level wiring, not backend state: the server
//     reports it through Options.Durability.
//
// The conformance suite (internal/httpapi/conformance) checks these
// invariants against every implementation.
type Backend interface {
	// View captures one epoch-consistent read view.
	View() (View, error)
	// Committing reports whether a mutation is currently building a newer
	// epoch (answers keep coming from the current one).
	Committing() bool
	// SubmitFeedback applies one confirm/reject correspondence decision.
	SubmitFeedback(core.Feedback) error
	// AddSources grows the system with a batch of sources under one group
	// commit; reports whether the incremental fast path applied.
	AddSources([]*schema.Source) (bool, error)
	// RemoveSource drops a source by name; reports whether the
	// incremental fast path applied. Unknown names return an error
	// wrapping core.ErrUnknownSource.
	RemoveSource(name string) (bool, error)
	// Shards reports the partition count; 0 means unsharded (the
	// /v1/schema response then omits the shard fields).
	Shards() int
	// Replication reports WAL-follower state (primary address, applied
	// sequence, staleness), or nil when this backend is a primary.
	Replication() *ReplicationStatus
	// Routing reports replica read-routing state (per-shard read sets,
	// which member served the last read, failover/staleness counters), or
	// nil when the backend routes no reads to replicas.
	Routing() *RoutingStatus
}

// View is one epoch-consistent read view: a core.Snapshot for the single
// system, a cross-shard shard.View (pinned snapshots in process, the
// last-observed remote epoch vector over the network) for the sharded
// ones.
type View interface {
	// Epoch identifies the serving state; it increases with every
	// committed mutation. Sharded backends report the vector sum.
	Epoch() uint64
	// EpochVector is the per-shard commit counter vector; nil when
	// unsharded.
	EpochVector() []uint64
	// CreatedAt is when this epoch was published.
	CreatedAt() time.Time
	// NumSources is the corpus size visible to this view.
	NumSources() int
	// PMed is the probabilistic mediated schema answering runs against.
	PMed() *schema.PMedSchema
	// Target is the consolidated mediated schema (may be nil before
	// consolidation).
	Target() *schema.MediatedSchema
	// RunCtx answers a query by table under this view's epoch: ranked
	// answers and per-source occurrence counts, no instance list.
	RunCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error)
	// RunInstancesCtx is RunCtx with the instances listed, which by-tuple
	// ranking reads.
	RunInstancesCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error)
	// ExplainCtx reports the per-source contributions behind one answer.
	ExplainCtx(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error)
	// Candidates ranks the correspondences most worth human confirmation.
	// A backend that fans out honours ctx on every leg.
	Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error)
}

// ReplicationStatus describes a WAL-following read replica for
// /v1/schema: how far behind its primary it is and by what measure.
type ReplicationStatus struct {
	// Primary is the address this replica follows.
	Primary string `json:"primary"`
	// AppliedSeq is the last WAL sequence replayed into the serving state.
	AppliedSeq uint64 `json:"applied_seq"`
	// PrimaryCommittedSeq is the primary's committed watermark at the last
	// successful poll; AppliedSeq lags it by the shipping delay.
	PrimaryCommittedSeq uint64 `json:"primary_committed_seq"`
	// PrimaryEpoch is the primary's serving epoch at the last poll.
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// LastSyncAt is when the last successful poll completed.
	LastSyncAt time.Time `json:"last_sync_at"`
	// SyncedOnce reports whether the replica has bootstrapped at all.
	SyncedOnce bool `json:"synced_once"`
}

// RoutingStatus describes a coordinator's replica failover tier for
// /v1/schema: cumulative routing counters and each shard's read set with
// per-member health and sync position. It is the typed degradation
// report — a client can see exactly which legs are being served by
// replicas and how far behind they are.
type RoutingStatus struct {
	// Failovers counts fan-out legs served by a replica because the
	// primary was failed; StaleRefused counts legs where a failover was
	// needed but a replica was refused for lagging the primary's
	// committed state.
	Failovers    int64 `json:"failovers"`
	StaleRefused int64 `json:"stale_refused"`
	// Shards is one entry per shard read set.
	Shards []RouteShardStatus `json:"shards"`
}

// RouteShardStatus is one shard's read set as the router sees it.
type RouteShardStatus struct {
	Shard   int    `json:"shard"`
	Primary string `json:"primary"`
	// LastReadBy identifies the member that served this shard's most
	// recent routed read leg; LastReadFailover marks it as a replica
	// serve, which only a failed primary forces.
	LastReadBy       string              `json:"last_read_by,omitempty"`
	LastReadFailover bool                `json:"last_read_failover,omitempty"`
	Failovers        int64               `json:"failovers"`
	StaleRefused     int64               `json:"stale_refused"`
	Members          []RouteMemberStatus `json:"members"`
}

// RouteMemberStatus is one read-set member's last-probed state.
type RouteMemberStatus struct {
	Addr string `json:"addr"`
	// Role is "primary" or "replica".
	Role    string `json:"role"`
	Healthy bool   `json:"healthy"`
	// Synced reports whether this member is eligible to serve the shard's
	// reads: for a replica, applied state covers the primary's last-known
	// committed state; a primary is always synced to itself.
	Synced bool `json:"synced"`
	// Probed reports whether a status probe has succeeded at least once;
	// the fields below are zero until it has.
	Probed       bool   `json:"probed"`
	Ready        bool   `json:"ready,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`
	StateGen     uint64 `json:"state_gen,omitempty"`
	CommittedSeq uint64 `json:"committed_seq,omitempty"`
	AppliedSeq   uint64 `json:"applied_seq,omitempty"`
	// ProbeAgeMS is how stale the probe observation itself is.
	ProbeAgeMS int64 `json:"probe_age_ms,omitempty"`
}

// --- single-core adapter ----------------------------------------------

// CoreBackend adapts a single-process core.System to the Backend
// contract: views are epoch snapshots (atomic pointer loads), mutations
// go through the system's single-writer commit path.
func CoreBackend(sys *core.System) Backend { return coreBackend{sys: sys} }

type coreBackend struct{ sys *core.System }

func (b coreBackend) View() (View, error) {
	return coreView{sn: b.sys.Snapshot(), sys: b.sys}, nil
}
func (b coreBackend) Committing() bool                      { return b.sys.Committing() }
func (b coreBackend) SubmitFeedback(fb core.Feedback) error { return b.sys.SubmitFeedback(fb) }
func (b coreBackend) Shards() int                           { return 0 }
func (b coreBackend) Replication() *ReplicationStatus       { return nil }
func (b coreBackend) Routing() *RoutingStatus               { return nil }

func (b coreBackend) AddSources(srcs []*schema.Source) (bool, error) {
	return b.sys.AddSources(srcs)
}

func (b coreBackend) RemoveSource(name string) (bool, error) {
	return b.sys.RemoveSource(name)
}

type coreView struct {
	sn  *core.Snapshot
	sys *core.System
}

func (v coreView) Epoch() uint64                  { return v.sn.Epoch }
func (v coreView) EpochVector() []uint64          { return nil }
func (v coreView) CreatedAt() time.Time           { return v.sn.CreatedAt }
func (v coreView) NumSources() int                { return len(v.sn.Corpus.Sources) }
func (v coreView) PMed() *schema.PMedSchema       { return v.sn.Med.PMed }
func (v coreView) Target() *schema.MediatedSchema { return v.sn.Target }

func (v coreView) RunCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return v.sn.RunCtx(ctx, a, q)
}

func (v coreView) RunInstancesCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return v.sn.RunInstancesCtx(ctx, a, q)
}

func (v coreView) ExplainCtx(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	return v.sn.ExplainCtx(ctx, q, values)
}

// Candidates ranks in memory with nothing to interrupt, so the context
// only refuses a request that has already expired.
func (v coreView) Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return feedback.NewSession(v.sys, nil).CandidatesIn(v.sn, limit), nil
}

// --- sharded adapter --------------------------------------------------

// ShardBackend adapts the scatter-gather coordinator to the Backend
// contract. shard.System and shard.View already have the contract's
// shape — views carry a per-shard epoch vector, queries fan out and merge
// bit-identically, feedback routes to the owning shard — but cannot name
// this package's types (it imports shard), so the adapter supplies only
// View's return type and the status methods. internal/shardrpc wraps the
// same adapter around a coordinator over remote shards.
func ShardBackend(sh *shard.System) Backend { return shardBackend{sh} }

type shardBackend struct{ *shard.System }

func (b shardBackend) View() (View, error)             { return b.System.View(), nil }
func (b shardBackend) Shards() int                     { return b.NumShards() }
func (b shardBackend) Replication() *ReplicationStatus { return nil }
func (b shardBackend) Routing() *RoutingStatus         { return nil }

// NewShardedServer wraps a sharded scatter-gather system with the same
// HTTP surface as NewServer: queries fan out to every shard, feedback
// routes to the owning shard, and /v1/schema reports the cross-shard
// epoch vector alongside the scalar epoch. Request metrics go to the
// sharded system's registry.
func NewShardedServer(sh *shard.System, opts Options) *Server {
	return NewBackendServer(ShardBackend(sh), sh.Obs(), opts)
}

// NewBackendServer wraps any Backend implementation with the /v1 HTTP
// surface — the constructor the networked coordinator and read replicas
// use. Request metrics go to reg (nil = obs.Default).
func NewBackendServer(be Backend, reg *obs.Registry, opts Options) *Server {
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{be: be, reg: reg, opts: opts, Logf: opts.Logf}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	return s
}
