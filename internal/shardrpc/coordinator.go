package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"udi/internal/answer"
	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/sqlparse"
)

// CoordinatorOptions configures a networked coordinator.
type CoordinatorOptions struct {
	// Client configures every shard stub (timeouts, retry budget).
	Client client.Options
	// Obs receives coordinator metrics; nil uses obs.Default.
	Obs *obs.Registry
	// OpTimeout bounds each mutation RPC (feedback, restructure). A hung
	// shard host then fails the mutation with a typed shard_unavailable
	// instead of blocking forever. 0 means no bound (the previous
	// behavior).
	OpTimeout time.Duration
}

// Coordinator is the networked serving shape: the one scatter-gather
// coordinator (internal/shard) over remote shard hosts. This type only
// builds it — parse the read sets, check every member speaks the
// protocol, hand the stubs over as shard.Shards — and owns what is
// specific to the wire: the routing report and the member prober.
// Everything a Backend does (fan-out, merge, feedback routing, the
// fast/rebuild decision, locking) is the embedded coordinator's.
//
// The coordinator journals nothing: durability lives on the shard hosts
// (each checkpoints structural state and write-ahead-logs feedback). A
// coordinator restart re-runs setup and pushes fresh state; restructure
// says what a host becomes, so a re-push over surviving hosts converges.
//
// Partial failure is never silent: if any shard cannot answer, the read
// fails with a typed shard_unavailable error instead of merging an
// incomplete result set.
type Coordinator struct {
	httpapi.Backend
	stubs []*stub
}

// NewCoordinator sets up a networked sharded system over the corpus: the
// coordinator's one global setup computes the mediation and every
// p-mapping locally, and each shard host receives its sources' rows and
// p-mappings in one restructure. One address entry per shard;
// the shard index is the position in addrs, and source→shard routing is
// shard.ShardOf. An entry may carry a replica read set after the
// primary, semicolon-separated ("primary;replica1;replica2"): replicas
// receive no pushes and no writes, and serve read legs only on primary
// failover, and only when synced to the primary's last-known committed
// state (routing.go).
func NewCoordinator(c *schema.Corpus, cfg core.Config, addrs []string, opts CoordinatorOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shardrpc: coordinator needs at least one shard address")
	}
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	co := &Coordinator{}
	shards := make([]shard.Shard, len(addrs))
	for i, spec := range addrs {
		st := newStub(i, spec, opts)
		if st.primary == nil {
			return nil, fmt.Errorf("shardrpc: shard %d address spec %q has no primary", i, spec)
		}
		co.stubs = append(co.stubs, st)
		shards[i] = st
	}
	if err := co.checkProtocol(context.Background()); err != nil {
		return nil, err
	}
	sys, err := shard.NewOver(c, cfg, shards)
	if err != nil {
		return nil, err
	}
	co.Backend = httpapi.ShardBackend(sys)
	return co, nil
}

// checkProtocol performs the health/version exchange with every read-set
// member: a host speaking a different protocol version is refused up
// front rather than corrupting merges later. An unreachable primary
// fails setup (the coordinator cannot push state to it); an unreachable
// replica is only marked unhealthy — replicas may lag the topology, and
// the prober re-admits them when they appear.
func (co *Coordinator) checkProtocol(ctx context.Context) error {
	for _, st := range co.stubs {
		for _, m := range st.members {
			err := st.probeMember(ctx, m)
			switch {
			case err == nil:
			case errors.Is(err, errProtocolMismatch):
				return err
			case m.replica:
				// Unreachable replica: unhealthy until a probe re-admits it.
			default:
				return st.rpcError(err)
			}
		}
	}
	return nil
}

// --- the remote shard.Shard -------------------------------------------
//
// A stub is one remote shard as the coordinator drives it. Writes always
// go to the read set's primary, each under its own OpTimeout; reads go
// through readLeg (routing.go).

// opDo runs one JSON mutation RPC against the primary under its own
// per-op timeout and records the epoch the host answers with; retry is
// false only for feedback. Mutations are coordinator-initiated (no
// caller context), so a deadline expiry here is the op timeout and
// opError maps it to a typed shard_unavailable.
func (st *stub) opDo(path string, in any, retry bool) error {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if st.opTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, st.opTimeout)
	}
	defer cancel()
	var out MutationResponse
	if err := st.primary.c.Do(ctx, http.MethodPost, path, in, &out, retry); err != nil {
		return st.opError(err)
	}
	st.epoch.Store(out.Epoch)
	return nil
}

// opError is rpcError for mutation paths: the per-op timeout expiring
// becomes a typed shard_unavailable (cause op_timeout) instead of a bare
// context error, so a hung host fails the mutation typed and fast.
func (st *stub) opError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		st.reg.Add("shardrpc.coord.op_timeouts", 1)
		st.reg.Add("shardrpc.coord.shard_unavailable", 1)
		return &httpapi.StatusError{
			Status:  http.StatusServiceUnavailable,
			Code:    httpapi.CodeShardUnavailable,
			Message: fmt.Sprintf("shard %d (%s) mutation timed out after %v", st.shard, st.primary.addr, st.opTimeout),
			Details: map[string]any{"shard": st.shard, "addr": st.primary.addr, "cause": "op_timeout"},
		}
	}
	return st.rpcError(err)
}

// rpcError maps one stub failure onto the Backend error contract:
// server-reported client errors (4xx) pass through byte-identical — the
// shard host renders the same envelope the coordinator would — while
// transport failures and 5xx states become a typed shard_unavailable.
// Caller-context expiry is returned unchanged so the HTTP layer maps it
// to timeout/canceled rather than 503.
func (st *stub) rpcError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	var se *httpapi.StatusError
	if errors.As(err, &se) && se.Status < 500 {
		return se
	}
	st.reg.Add("shardrpc.coord.shard_unavailable", 1)
	return &httpapi.StatusError{
		Status:  http.StatusServiceUnavailable,
		Code:    httpapi.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d (%s) unavailable", st.shard, st.primary.addr),
		Details: map[string]any{"shard": st.shard, "addr": st.primary.addr, "cause": err.Error()},
	}
}

// Feedback is the one non-idempotent RPC: it is sent exactly once, and an
// ambiguous transport failure surfaces as shard_unavailable rather than
// being retried into a possible double-apply. (FeedbackResponse is
// MutationResponse without the state generation.)
func (st *stub) Feedback(fb core.Feedback) error {
	return st.opDo("/v1/shard/feedback", FeedbackRequest{Proto: Version, Feedback: fb}, false)
}

// Restructure is idempotent on the host (it drives the same shard.Local
// the in-process transport is), so transport-level retries cannot
// double-apply. The host checkpoints inside it. Always addressed to the
// primary: replicas pick the new state up by re-bootstrapping when the
// primary's state generation moves.
func (st *stub) Restructure(ch shard.Change) error {
	return st.opDo("/v1/shard/restructure", EncodeChange(ch), true)
}

// Checkpoint and Close have nothing to do: durability is the host's (it
// persists inside each structural RPC) and the stub holds nothing open.
func (st *stub) Checkpoint() error { return nil }
func (st *stub) Close() error      { return nil }

// Pin captures the shard's last-observed primary epoch. Unlike the
// in-process leg it pins no remote snapshot — each read runs against
// whatever epoch the serving member holds — and the view's own epoch
// stays the capture-time value (views are shared across concurrent
// readers, so refreshing it in place would race). Response epochs refresh
// the stub instead, for the next view.
func (st *stub) Pin() shard.Leg { return remoteLeg{st: st, epoch: st.epoch.Load()} }

type remoteLeg struct {
	st    *stub
	epoch uint64
}

func (l remoteLeg) Epoch() uint64        { return l.epoch }
func (l remoteLeg) CreatedAt() time.Time { return time.Time{} }

// read runs one read RPC through readLeg (primary first, synced-replica
// failover). call answers with the epoch its response
// carried; it feeds the shard's epoch only when the primary served, so
// replica-local epochs never pollute the vector. A leg that exhausts its
// read set fails typed.
func (st *stub) read(ctx context.Context, call func(m *member) (epoch uint64, err error)) error {
	var epoch uint64
	served, err := st.readLeg(ctx, func(m *member) (err error) {
		epoch, err = call(m)
		return err
	})
	if err != nil {
		return st.rpcError(err)
	}
	if served == st.primary {
		st.epoch.Store(epoch)
	}
	return nil
}

// readJSON is read for a JSON response, decoded into a fresh R per
// attempt — a member that failed mid-body must not leave half a response
// under the next one's.
func readJSON[R any](ctx context.Context, st *stub, path string, in any, epoch func(*R) uint64) (*R, error) {
	var resp *R
	err := st.read(ctx, func(m *member) (uint64, error) {
		resp = new(R)
		if err := m.c.Do(ctx, http.MethodPost, path, in, resp, true); err != nil {
			return 0, err
		}
		return epoch(resp), nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Run returns the merge inputs only: ranked answers are not shipped, the
// coordinator recomputes them over the bit-exact wire probabilities, and
// instances cross only when d asks for them. The answer is the one binary
// body of the protocol (part.go); a frame the decoder refuses is
// re-fetched like any damaged response.
func (l remoteLeg) Run(ctx context.Context, a core.Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	st, t0 := l.st, time.Now()
	req := QueryRequest{Proto: Version, Query: q.String(), Approach: string(a), Instances: d == answer.WithInstances}
	var rs *answer.ResultSet
	err := st.read(ctx, func(m *member) (epoch uint64, err error) {
		err = m.c.PostBinary(ctx, "/v1/shard/query", req, func(frame []byte) (err error) {
			d0 := time.Now()
			rs, epoch, err = DecodePart(frame)
			if st.reg.Enabled() {
				st.reg.Observe("shardrpc.leg.decode_seconds", time.Since(d0).Seconds())
			}
			return err
		})
		return epoch, err
	})
	if st.reg.Enabled() {
		st.reg.Observe("shardrpc.leg.seconds", time.Since(t0).Seconds())
	}
	if err != nil {
		return nil, err
	}
	return rs, nil
}

func (l remoteLeg) Explain(ctx context.Context, q *sqlparse.Query, values []string) ([]answer.Contribution, error) {
	req := ExplainRequest{Proto: Version, Query: q.String(), Values: values}
	resp, err := readJSON(ctx, l.st, "/v1/shard/explain", req, func(r *ExplainResponse) uint64 { return r.Epoch })
	if err != nil {
		return nil, err
	}
	return resp.Contributions, nil
}

func (l remoteLeg) Candidates(ctx context.Context, limit int) ([]feedback.Candidate, error) {
	req := CandidatesRequest{Proto: Version, Limit: limit}
	resp, err := readJSON(ctx, l.st, "/v1/shard/candidates", req, func(r *CandidatesResponse) uint64 { return r.Epoch })
	if err != nil {
		return nil, err
	}
	return DecodeCandidates(resp.Candidates), nil
}
