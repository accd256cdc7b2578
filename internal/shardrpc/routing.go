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
// probes, and read-side fan-out legs route to the least-loaded member
// whose staleness is inside the configured bound. Writes always go to
// the primary; replicas never see a mutating RPC.
//
// Eligibility is two-tiered:
//
//   - Balanced reads (MaxStaleness > 0): a replica may serve a routine
//     read leg when its last probe is fresher than the bound AND it was
//     synced to the primary's committed state at that probe. With the
//     default bound of 0 no replica ever serves a routine read — the
//     primary-only semantics of the pre-routing coordinator.
//   - Failover reads (any bound, primary failed): a replica may serve
//     when it is synced to the primary's last-known committed state. A
//     failed primary accepts no writes, so a synced replica holds the
//     same committed bits and failover cannot change answers — even at
//     bound 0. Replicas lagging that watermark are refused and counted
//     (shardrpc.route.stale_refused) rather than served wrong.

// member is one read-set member (the primary or a replica) with its
// last-probed status. load counts in-flight routed legs; healthy flips
// false on probe/serve failures and back on the next successful probe.
type member struct {
	addr    string
	c       *client.Client
	replica bool
	load    atomic.Int64
	healthy atomic.Bool
	status  atomic.Pointer[memberStatus]
}

// memberStatus is one successful status probe, timestamped so the
// router can bound how stale the observation itself is.
type memberStatus struct {
	at               time.Time
	ready            bool
	epoch            uint64
	stateGen         uint64
	durable          bool
	committedSeq     uint64
	appliedSeq       uint64
	primaryCommitted uint64
	primaryEpoch     uint64
	synced           bool
}

// readRecord remembers which member served a shard's last routed read
// leg — the /v1/schema degradation report.
type readRecord struct {
	addr     string
	replica  bool
	failover bool
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
	// maxStaleness and opTimeout are the coordinator's options (see
	// CoordinatorOptions).
	maxStaleness time.Duration
	opTimeout    time.Duration
	epoch        atomic.Uint64
	// rr breaks least-loaded ties round-robin so sequential reads still
	// spread across an idle read set.
	rr           atomic.Uint64
	replicaReads atomic.Int64
	failovers    atomic.Int64
	staleRefused atomic.Int64
	lastRead     atomic.Pointer[readRecord]
}

// newStub parses one -shard-addrs entry: "primary" or
// "primary;replica1;replica2". Empty segments are skipped, so a
// trailing semicolon is harmless.
func newStub(shard int, spec string, opts CoordinatorOptions) *stub {
	st := &stub{shard: shard, reg: opts.Obs, maxStaleness: opts.MaxStaleness, opTimeout: opts.OpTimeout}
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
// healthy primary: the least-loaded of {primary + in-bound synced
// replicas} first, the rest of that set next, remaining synced replicas
// as failover fallbacks. With a failed primary: synced replicas first
// (lagging ones refused and counted), the primary itself last in case
// it recovered since the last probe.
func (st *stub) pick(maxStale time.Duration) (try []*member, primHealthy bool, refused int) {
	prim := st.primary
	primHealthy = prim.healthy.Load()
	if len(st.members) == 1 {
		return st.members, primHealthy, 0
	}
	now := time.Now()
	ps := prim.status.Load()
	var balanced, failover []*member
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
		failover = append(failover, m)
		if maxStale > 0 && now.Sub(ms.at) <= maxStale {
			balanced = append(balanced, m)
		}
	}
	if primHealthy {
		cands := append(make([]*member, 0, 1+len(balanced)), prim)
		cands = append(cands, balanced...)
		chosen := st.leastLoaded(cands)
		try = append(try, chosen)
		for _, m := range cands {
			if m != chosen {
				try = append(try, m)
			}
		}
		for _, m := range failover {
			if !containsMember(try, m) {
				try = append(try, m)
			}
		}
		return try, true, refused
	}
	if len(failover) > 0 {
		chosen := st.leastLoaded(failover)
		try = append(try, chosen)
		for _, m := range failover {
			if m != chosen {
				try = append(try, m)
			}
		}
	}
	try = append(try, prim)
	return try, false, refused
}

// leastLoaded picks the member with the fewest in-flight routed legs,
// rotating round-robin among ties (loads are a heuristic snapshot; a
// concurrent change just shifts the tie-break).
func (st *stub) leastLoaded(cands []*member) *member {
	min := cands[0].load.Load()
	for _, m := range cands[1:] {
		if l := m.load.Load(); l < min {
			min = l
		}
	}
	tied := cands[:0:0]
	for _, m := range cands {
		if m.load.Load() <= min {
			tied = append(tied, m)
		}
	}
	if len(tied) == 0 {
		return cands[0]
	}
	return tied[int(st.rr.Add(1)-1)%len(tied)]
}

// errProtocolMismatch marks a member answering status with a different
// protocol version — fatal at startup even for replicas, since routing
// a read there would corrupt merges.
var errProtocolMismatch = errors.New("protocol mismatch")

func protocolMismatch(shard int, addr string, got int) error {
	return fmt.Errorf("shardrpc: shard %d (%s) speaks protocol %d, coordinator speaks %d: %w",
		shard, addr, got, Version, errProtocolMismatch)
}

func containsMember(ms []*member, m *member) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
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

// readLeg runs one read-side RPC against the shard's routed member,
// walking the attempt list on failoverable errors. fn must be safe to
// re-run against a different member (all read RPCs are). The returned
// member is the one that served; the caller only updates the shard's
// epoch vector when it is the primary, so replica-local epochs never
// pollute the primary epoch vector.
func (st *stub) readLeg(ctx context.Context, fn func(m *member) error) (*member, error) {
	try, primHealthy, refused := st.pick(st.maxStaleness)
	if refused > 0 {
		st.staleRefused.Add(int64(refused))
		st.reg.Add("shardrpc.route.stale_refused", int64(refused))
	}
	primaryFailed := !primHealthy
	var last error
	for _, m := range try {
		if last != nil && ctx.Err() != nil {
			return nil, last
		}
		m.load.Add(1)
		err := fn(m)
		m.load.Add(-1)
		if err == nil {
			st.recordRead(m, primaryFailed)
			return m, nil
		}
		last = err
		if !failoverable(err) {
			return nil, err
		}
		m.healthy.Store(false)
		if m == st.primary {
			primaryFailed = true
		}
		st.reg.Add("shardrpc.route.member_errors", 1)
	}
	return nil, last
}

// recordRead publishes who served a leg and bumps the routing counters.
func (st *stub) recordRead(m *member, failover bool) {
	st.lastRead.Store(&readRecord{addr: m.addr, replica: m.replica, failover: failover && m.replica})
	if !m.replica {
		return
	}
	st.replicaReads.Add(1)
	st.reg.Add("shardrpc.route.replica_reads", 1)
	if failover {
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
		at:               time.Now(),
		ready:            status.Ready,
		epoch:            status.Epoch,
		stateGen:         status.StateGen,
		durable:          status.Durable,
		committedSeq:     status.CommittedSeq,
		appliedSeq:       status.AppliedSeq,
		primaryCommitted: status.PrimaryCommittedSeq,
		primaryEpoch:     status.PrimaryEpoch,
		synced:           status.Synced,
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

// StartProber runs periodic Probe passes in the background and returns
// a stop function. With no replicas configured it is a no-op: the plain
// primary-only coordinator keeps its zero-goroutine footprint. The
// cadence is half the staleness bound — a replica's observation must be
// refreshed well inside the window in which it may serve — capped at 1s,
// which is also the cadence at bound 0 (failover-only).
func (co *Coordinator) StartProber() (stop func()) {
	if !co.hasReplicas() {
		return func() {}
	}
	every := time.Second
	if half := co.maxStaleness / 2; half > 0 && half < every {
		every = half
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), every)
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
	rs := &httpapi.RoutingStatus{MaxStalenessMS: co.maxStaleness.Milliseconds()}
	for _, st := range co.stubs {
		ss := httpapi.RouteShardStatus{
			Shard:        st.shard,
			Primary:      st.primary.addr,
			ReplicaReads: st.replicaReads.Load(),
			Failovers:    st.failovers.Load(),
			StaleRefused: st.staleRefused.Load(),
		}
		if rec := st.lastRead.Load(); rec != nil {
			ss.LastReadBy = rec.addr
			ss.LastReadStale = rec.replica
			ss.LastReadFailover = rec.failover
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
		rs.ReplicaReads += ss.ReplicaReads
		rs.Failovers += ss.Failovers
		rs.StaleRefused += ss.StaleRefused
		rs.Shards = append(rs.Shards, ss)
	}
	return rs
}
