package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/client"
	"udi/internal/httpapi"
	"udi/internal/obs"
)

// This file is the coordinator's read-routing layer: each shard is a
// read set (one primary plus WAL-following replicas), every member's
// health and replication position is tracked via /v1/shard/status
// probes, and read-side fan-out legs go to the primary, failing over to
// a replica only when the primary fails. Writes always go to the
// primary; replicas never see a mutating RPC.
//
// A replica may serve a read leg only when it is synced to the
// primary's last-known committed state. A failed primary accepts no
// writes, so a synced replica holds the same committed bits and
// failover cannot change answers. Replicas lagging that watermark are
// refused and counted (shardrpc.route.stale_refused) rather than served
// wrong.

// member is one read-set member (the primary or a replica) with its
// last-probed status. healthy flips false on probe/serve failures and
// back on the next successful probe.
type member struct {
	addr    string
	c       *client.Client
	replica bool
	healthy atomic.Bool
	status  atomic.Pointer[memberStatus]
}

// memberStatus is one successful status probe, timestamped so the
// routing report can say how stale the observation itself is.
type memberStatus struct {
	at           time.Time
	ready        bool
	epoch        uint64
	stateGen     uint64
	durable      bool
	committedSeq uint64
	appliedSeq   uint64
	primaryEpoch uint64
	synced       bool
}

// stub is one shard as the coordinator sees it — its shard.Shard (the
// verbs are in coordinator.go): the read set (members[0] is always the
// primary), the shard's last-observed primary epoch, and the routing
// counters. The mutable fields are independently atomic; the read path
// never locks.
type stub struct {
	shard   int
	primary *member
	members []*member
	reg     *obs.Registry
	// opTimeout is the coordinator's option (see CoordinatorOptions).
	opTimeout    time.Duration
	epoch        atomic.Uint64
	failovers    atomic.Int64
	staleRefused atomic.Int64
	// lastRead is the member that served the shard's last routed read
	// leg — the /v1/schema degradation report.
	lastRead atomic.Pointer[member]
}

// newStub parses one -shard-addrs entry: "primary" or
// "primary;replica1;replica2". Empty segments are skipped, so a
// trailing semicolon is harmless.
func newStub(shard int, spec string, opts CoordinatorOptions) *stub {
	st := &stub{shard: shard, reg: opts.Obs, opTimeout: opts.OpTimeout}
	for _, a := range strings.Split(spec, ";") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		m := &member{addr: a, c: client.New(a, opts.Client), replica: len(st.members) > 0}
		m.healthy.Store(true)
		st.members = append(st.members, m)
	}
	if len(st.members) > 0 {
		st.primary = st.members[0]
	}
	return st
}

// syncedTo reports whether a replica's probed position covers the
// primary's last-known committed state: same structural generation, and
// either the WAL watermark caught up (durable primary) or the epoch
// observed at the replica's last sync matches (non-durable primary,
// where any epoch movement forces a replica re-bootstrap).
func syncedTo(ps, ms *memberStatus) bool {
	if ps == nil || ms == nil || !ms.synced || ms.stateGen != ps.stateGen {
		return false
	}
	if ps.durable {
		return ms.appliedSeq >= ps.committedSeq
	}
	return ms.primaryEpoch == ps.epoch
}

// pick assembles the ordered attempt list for one read leg. With a
// healthy primary: the primary, then the synced replicas in configured
// order as failover fallbacks. With a failed primary: the synced
// replicas in configured order (lagging ones refused and counted), then
// the primary itself last in case it recovered since the last probe.
func (st *stub) pick() (try []*member, refused int) {
	if len(st.members) == 1 {
		return st.members, 0
	}
	prim := st.primary
	primHealthy := prim.healthy.Load()
	if primHealthy {
		try = append(try, prim)
	}
	ps := prim.status.Load()
	for _, m := range st.members[1:] {
		if !m.healthy.Load() {
			continue
		}
		ms := m.status.Load()
		if ms == nil || !ms.ready {
			continue
		}
		if !syncedTo(ps, ms) {
			if !primHealthy {
				refused++
			}
			continue
		}
		try = append(try, m)
	}
	if !primHealthy {
		try = append(try, prim)
	}
	return try, refused
}

// errProtocolMismatch marks a member answering status with a different
// protocol version — fatal at startup even for replicas, since routing
// a read there would corrupt merges.
var errProtocolMismatch = errors.New("protocol mismatch")

func protocolMismatch(shard int, addr string, got int) error {
	return fmt.Errorf("shardrpc: shard %d (%s) speaks protocol %d, coordinator speaks %d: %w",
		shard, addr, got, Version, errProtocolMismatch)
}

// failoverable reports whether a leg failure should move on to the next
// read-set member: transport failures and 5xx/429 server states, never
// the caller's own context expiry or a definitive 4xx answer.
func failoverable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var se *httpapi.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == http.StatusTooManyRequests
	}
	return true
}

// readLeg runs one read-side RPC against the shard's read set, walking
// the attempt list on failoverable errors. fn must be safe to re-run
// against a different member (all read RPCs are). The returned member is
// the one that served; the caller only updates the shard's epoch vector
// when it is the primary, so replica-local epochs never pollute the
// primary epoch vector.
func (st *stub) readLeg(ctx context.Context, fn func(m *member) error) (*member, error) {
	try, refused := st.pick()
	if refused > 0 {
		st.staleRefused.Add(int64(refused))
		st.reg.Add("shardrpc.route.stale_refused", int64(refused))
	}
	var last error
	for _, m := range try {
		if last != nil && ctx.Err() != nil {
			return nil, last
		}
		err := fn(m)
		if err == nil {
			st.recordRead(m)
			return m, nil
		}
		last = err
		if !failoverable(err) {
			return nil, err
		}
		m.healthy.Store(false)
		st.reg.Add("shardrpc.route.member_errors", 1)
	}
	return nil, last
}

// recordRead publishes who served a leg; a replica serve is a failover.
func (st *stub) recordRead(m *member) {
	st.lastRead.Store(m)
	if m.replica {
		st.failovers.Add(1)
		st.reg.Add("shardrpc.route.failovers", 1)
	}
}

// probeMember refreshes one member's status. A reachable member speaking
// the wrong protocol is an error the caller treats as fatal at startup;
// a transport failure just marks the member unhealthy (a later probe
// re-admits it).
func (st *stub) probeMember(ctx context.Context, m *member) error {
	var status StatusResponse
	if err := m.c.Get(ctx, "/v1/shard/status", &status); err != nil {
		m.healthy.Store(false)
		return err
	}
	if status.Proto != Version {
		m.healthy.Store(false)
		return protocolMismatch(st.shard, m.addr, status.Proto)
	}
	m.status.Store(&memberStatus{
		at:           time.Now(),
		ready:        status.Ready,
		epoch:        status.Epoch,
		stateGen:     status.StateGen,
		durable:      status.Durable,
		committedSeq: status.CommittedSeq,
		appliedSeq:   status.AppliedSeq,
		primaryEpoch: status.PrimaryEpoch,
		synced:       status.Synced,
	})
	m.healthy.Store(true)
	if !m.replica && status.Ready {
		st.epoch.Store(status.Epoch)
	}
	return nil
}

// Probe refreshes every read-set member's status concurrently. The read
// path never waits on it — eligibility always works from the last
// completed probe.
func (co *Coordinator) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, st := range co.stubs {
		for _, m := range st.members {
			wg.Add(1)
			go func(st *stub, m *member) {
				defer wg.Done()
				_ = st.probeMember(ctx, m)
			}(st, m)
		}
	}
	wg.Wait()
}

// proberEvery is the background prober's cadence: how soon a failed
// member is re-admitted and a replica's sync position refreshed.
const proberEvery = time.Second

// StartProber runs a Probe pass every proberEvery in the background and
// returns a stop function. With no replicas configured it is a no-op:
// the plain primary-only coordinator keeps its zero-goroutine footprint.
func (co *Coordinator) StartProber() (stop func()) {
	if !co.hasReplicas() {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(proberEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), proberEvery)
				co.Probe(ctx)
				cancel()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (co *Coordinator) hasReplicas() bool {
	for _, st := range co.stubs {
		if len(st.members) > 1 {
			return true
		}
	}
	return false
}

// Routing implements httpapi.Backend: the /v1/schema degradation
// report. Nil with no replicas configured, so the primary-only
// coordinator's schema response is unchanged.
func (co *Coordinator) Routing() *httpapi.RoutingStatus {
	if !co.hasReplicas() {
		return nil
	}
	now := time.Now()
	rs := &httpapi.RoutingStatus{}
	for _, st := range co.stubs {
		ss := httpapi.RouteShardStatus{
			Shard:        st.shard,
			Primary:      st.primary.addr,
			Failovers:    st.failovers.Load(),
			StaleRefused: st.staleRefused.Load(),
		}
		if m := st.lastRead.Load(); m != nil {
			ss.LastReadBy = m.addr
			ss.LastReadFailover = m.replica
		}
		ps := st.primary.status.Load()
		for _, m := range st.members {
			rm := httpapi.RouteMemberStatus{Addr: m.addr, Role: "primary", Healthy: m.healthy.Load()}
			if m.replica {
				rm.Role = "replica"
			}
			if ms := m.status.Load(); ms != nil {
				rm.Probed = true
				rm.Ready = ms.ready
				rm.Epoch = ms.epoch
				rm.StateGen = ms.stateGen
				rm.CommittedSeq = ms.committedSeq
				rm.AppliedSeq = ms.appliedSeq
				rm.ProbeAgeMS = now.Sub(ms.at).Milliseconds()
				rm.Synced = !m.replica || syncedTo(ps, ms)
			}
			ss.Members = append(ss.Members, rm)
		}
		rs.Failovers += ss.Failovers
		rs.StaleRefused += ss.StaleRefused
		rs.Shards = append(rs.Shards, ss)
	}
	return rs
}
