package shardrpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/replica"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
)

// The read-routing battery: a coordinator whose shard read sets carry
// WAL-following replicas must keep every answer `==`-bit-identical to
// the primary-only system — the primary serves every read it can,
// failover reads come only from replicas synced to the primary's
// last-known committed state and in configured order, lagging replicas
// are refused rather than served wrong, and writes never touch a
// replica.

// routedSystem is one shard with a fault proxy in front of the primary
// (the coordinator's only path to it) and a WAL-following replica that
// syncs directly against the host — killing the proxy takes the primary
// away from the coordinator while the replica keeps its state.
type routedSystem struct {
	host       *shardrpc.Host
	hostURL    string
	proxy      *faultProxy
	f          *replica.Follower
	replicaURL string
	co         *shardrpc.Coordinator
}

func startRoutedSystem(t *testing.T, durable bool, copts shardrpc.CoordinatorOptions) *routedSystem {
	t.Helper()
	cfg := core.Config{Obs: obs.NewRegistry()}
	hopts := shardrpc.HostOptions{Obs: obs.NewRegistry()}
	if durable {
		hopts.DataDir = t.TempDir()
	}
	h, err := shardrpc.NewHost(cfg, hopts)
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	hostSrv := httptest.NewServer(h.Handler())
	t.Cleanup(hostSrv.Close)
	t.Cleanup(func() { h.Close() })
	p, proxyURL := newFaultProxy(t, hostSrv.URL)

	f := replica.New(hostSrv.URL, cfg, replica.Options{
		PollInterval: 50 * time.Millisecond, Obs: obs.NewRegistry(),
	})
	replicaSrv := httptest.NewServer(f.ShardHandler())
	t.Cleanup(replicaSrv.Close)

	copts.Obs = obs.NewRegistry()
	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{proxyURL + ";" + replicaSrv.URL}, copts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("replica sync: %v", err)
	}
	co.Probe(ctx)
	return &routedSystem{host: h, hostURL: hostSrv.URL, proxy: p, f: f,
		replicaURL: replicaSrv.URL, co: co}
}

func routingStatus(t *testing.T, co *shardrpc.Coordinator) *httpapi.RoutingStatus {
	t.Helper()
	rs := co.Routing()
	if rs == nil {
		t.Fatal("Routing() = nil with replicas configured")
	}
	return rs
}

func firstCandidateFeedback(t *testing.T, v httpapi.View) core.Feedback {
	t.Helper()
	cands, err := v.Candidates(context.Background(), 1)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	return core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
		SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}
}

// TestReplicaFailoverServesReads: with the primary dead and a synced
// replica in the read set, reads keep succeeding with bit-identical
// answers — a dead primary commits nothing — while writes fail with the
// typed shard_unavailable.
func TestReplicaFailoverServesReads(t *testing.T) {
	rs := startRoutedSystem(t, true, shardrpc.CoordinatorOptions{})
	ctx := context.Background()
	v, q := probeQuery(t, rs.co)
	before, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("read with healthy primary: %v", err)
	}
	fb := firstCandidateFeedback(t, v)

	// The primary drops off the network; the replica keeps serving the
	// state it already replayed.
	rs.proxy.set("refuse", "", -1)
	rs.co.Probe(ctx)

	after, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("read with dead primary and synced replica: %v", err)
	}
	compareRPCResultSets(t, "failover read", before, after)

	wantShardUnavailable(t, rs.co.SubmitFeedback(fb))

	st := routingStatus(t, rs.co)
	if st.Failovers == 0 {
		t.Fatalf("failovers=%d, want > 0", st.Failovers)
	}
	sh0 := st.Shards[0]
	if sh0.LastReadBy != rs.replicaURL || !sh0.LastReadFailover {
		t.Fatalf("last read record %+v, want failover read served by %s", sh0, rs.replicaURL)
	}
}

// TestLaggingReplicaRefused: a replica that has not replayed the
// primary's committed WAL tail is refused (and counted) when the
// primary fails — then, once it catches up, the same read fails over
// and serves the post-feedback bits.
func TestLaggingReplicaRefused(t *testing.T) {
	rs := startRoutedSystem(t, true, shardrpc.CoordinatorOptions{})
	ctx := context.Background()
	v, q := probeQuery(t, rs.co)
	fb := firstCandidateFeedback(t, v)
	if err := rs.co.SubmitFeedback(fb); err != nil {
		t.Fatalf("feedback: %v", err)
	}

	// Observe the advanced commit watermark, then lose the primary. The
	// replica still serves pre-feedback state — serving it would change
	// answer bits, so the read must fail typed instead.
	rs.co.Probe(ctx)
	rs.proxy.set("refuse", "", -1)
	rs.co.Probe(ctx)
	_, err := v.RunCtx(ctx, core.UDI, q)
	wantShardUnavailable(t, err)
	st := routingStatus(t, rs.co)
	if st.StaleRefused == 0 {
		t.Fatal("lagging replica was not counted stale_refused")
	}
	if st.Failovers != 0 {
		t.Fatalf("lagging replica served %d reads", st.Failovers)
	}

	// The primary comes back, the replica replays the WAL tail, and the
	// next failover serves the caught-up state.
	rs.proxy.set("ok", "", 0)
	rs.co.Probe(ctx)
	want, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("read after primary recovery: %v", err)
	}
	if err := rs.f.Sync(ctx); err != nil {
		t.Fatalf("replica catch-up sync: %v", err)
	}
	rs.co.Probe(ctx)
	rs.proxy.set("refuse", "", -1)
	rs.co.Probe(ctx)
	got, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("failover read after catch-up: %v", err)
	}
	compareRPCResultSets(t, "failover after catch-up", want, got)
	if routingStatus(t, rs.co).Failovers == 0 {
		t.Fatal("caught-up replica served no failover reads")
	}
}

// TestFailoverOrderTwoReplicas: with a primary and replicas r1, r2, a
// failed primary's reads go to the first synced replica in configured
// order. While r1 lags the committed feedback, r2 serves the
// post-feedback bits and r1 is counted stale_refused; once r1 catches
// up, every read is r1's.
func TestFailoverOrderTwoReplicas(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	hostSrv := httptest.NewServer(h.Handler())
	t.Cleanup(hostSrv.Close)
	t.Cleanup(func() { h.Close() })
	p, proxyURL := newFaultProxy(t, hostSrv.URL)
	followers := make([]*replica.Follower, 2)
	urls := make([]string, 2)
	for i := range followers {
		followers[i] = replica.New(hostSrv.URL, cfg, replica.Options{Obs: obs.NewRegistry()})
		srv := httptest.NewServer(followers[i].ShardHandler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	r1, r2 := followers[0], followers[1]
	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg,
		[]string{proxyURL + ";" + urls[0] + ";" + urls[1]}, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ctx := context.Background()
	for i, f := range followers {
		if err := f.Sync(ctx); err != nil {
			t.Fatalf("replica r%d sync: %v", i+1, err)
		}
	}

	// Commit feedback; only r2 replays it, then the primary dies.
	v, q := probeQuery(t, co)
	if err := co.SubmitFeedback(firstCandidateFeedback(t, v)); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	want, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("read with healthy primary: %v", err)
	}
	if err := r2.Sync(ctx); err != nil {
		t.Fatalf("replica r2 catch-up sync: %v", err)
	}
	co.Probe(ctx)
	p.set("refuse", "", -1)
	co.Probe(ctx)

	got, err := v.RunCtx(ctx, core.UDI, q)
	if err != nil {
		t.Fatalf("failover read with r1 lagging: %v", err)
	}
	compareRPCResultSets(t, "failover to r2", want, got)
	st := routingStatus(t, co)
	if st.StaleRefused == 0 {
		t.Fatal("lagging r1 was not counted stale_refused")
	}
	if by := st.Shards[0].LastReadBy; by != urls[1] {
		t.Fatalf("failover read served by %s, want r2 %s", by, urls[1])
	}

	// r1 catches up: it is first in configured order, so it serves every
	// read from now on.
	if err := r1.Sync(ctx); err != nil {
		t.Fatalf("replica r1 catch-up sync: %v", err)
	}
	co.Probe(ctx)
	for i := 0; i < 6; i++ {
		got, err := v.RunCtx(ctx, core.UDI, q)
		if err != nil {
			t.Fatalf("failover read %d with r1 synced: %v", i, err)
		}
		compareRPCResultSets(t, fmt.Sprintf("failover read %d to r1", i), want, got)
		if by := routingStatus(t, co).Shards[0].LastReadBy; by != urls[0] {
			t.Fatalf("failover read %d served by %s, want r1 %s", i, by, urls[0])
		}
	}
}

// TestRoutedDifferentialBoundZero is the acceptance bar for the default
// configuration: at shard counts {1,2,4,8} with a replica beside every
// shard and every primary healthy, the routed coordinator must stay
// `==`-bit-identical to the single-core oracle and the in-process
// sharded system through interleaved mutations, and no replica may
// serve a single read.
func TestRoutedDifferentialBoundZero(t *testing.T) {
	for ti, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ti)*7919 + 5))
			corpus := randomRPCCorpus(rng)
			cfg := core.Config{Obs: obs.NewRegistry()}
			oracle, err := core.Setup(corpus, cfg)
			if err != nil {
				t.Fatalf("oracle setup: %v", err)
			}
			sh, err := shard.New(corpus, cfg, shard.Options{Shards: shards})
			if err != nil {
				t.Fatalf("sharded setup: %v", err)
			}
			hostURLs := startHosts(t, shards, cfg)
			specs := make([]string, shards)
			followers := make([]*replica.Follower, shards)
			for i, u := range hostURLs {
				f := replica.New(u, cfg, replica.Options{Obs: obs.NewRegistry()})
				fsrv := httptest.NewServer(f.ShardHandler())
				t.Cleanup(fsrv.Close)
				specs[i] = u + ";" + fsrv.URL
				followers[i] = f
			}
			co, err := shardrpc.NewCoordinator(corpus, cfg, specs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatalf("coordinator setup: %v", err)
			}
			ctx := context.Background()
			for i, f := range followers {
				// An empty shard has no bootstrap state to replicate; its
				// replica simply stays unsynced (and thus ineligible).
				if hostStatus(t, hostURLs[i]).NumSources == 0 {
					continue
				}
				if err := f.Sync(ctx); err != nil {
					t.Fatalf("follower %d sync: %v", i, err)
				}
			}
			co.Probe(ctx)

			nextID := 0
			compareNetworked(t, "initial", oracle, sh, co, rpcTrialQueries(rng, oracle.Corpus))
			for m := 0; m < 2; m++ {
				mutateNetworked(t, rng, oracle, sh, co, &nextID)
				compareNetworked(t, fmt.Sprintf("after mutation %d", m),
					oracle, sh, co, rpcTrialQueries(rng, oracle.Corpus))
			}
			if st := routingStatus(t, co); st.Failovers != 0 {
				t.Fatalf("healthy-primary run served %d replica reads", st.Failovers)
			}
		})
	}
}

// TestCandidatesPerShardLimitMerge: the coordinator asks each shard for
// only its local top-limit, and the merged queue is still exactly the
// in-process sharded queue — per-shard truncation is merge-equivalent
// because the ordering key is a total order over disjoint sources.
func TestCandidatesPerShardLimitMerge(t *testing.T) {
	spec := datagen.People(211)
	spec.NumSources = 16
	c := datagen.MustGenerate(spec)
	cfg := core.Config{Obs: obs.NewRegistry()}
	sh, err := shard.New(c.Corpus, cfg, shard.Options{Shards: 4})
	if err != nil {
		t.Fatalf("sharded setup: %v", err)
	}

	// Wrap every host handler to record the limit each candidates
	// request actually carries on the wire.
	var mu sync.Mutex
	var wireLimits []int
	addrs := make([]string, 4)
	for i := 0; i < 4; i++ {
		h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		inner := h.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard/candidates" {
				body, _ := io.ReadAll(r.Body)
				var req shardrpc.CandidatesRequest
				_ = json.Unmarshal(body, &req)
				mu.Lock()
				wireLimits = append(wireLimits, req.Limit)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { h.Close() })
		addrs[i] = srv.URL
	}
	co, err := shardrpc.NewCoordinator(c.Corpus, cfg, addrs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	sv, err := httpapi.ShardBackend(sh).View()
	if err != nil {
		t.Fatalf("sharded view: %v", err)
	}

	// The full merges, one per transport: both now push the limit down to
	// their shards, so each one's top-k must be a prefix of its own (and
	// the other's) unlimited queue.
	fulls := map[string][]feedback.Candidate{}
	for name, view := range map[string]httpapi.View{"networked": v, "in-process": sv} {
		if fulls[name], err = view.Candidates(context.Background(), 0); err != nil {
			t.Fatalf("%s candidates(0): %v", name, err)
		}
	}
	for _, k := range []int{1, 2, 3, 5, 8, 64} {
		want, werr := sv.Candidates(context.Background(), k)
		got, gerr := v.Candidates(context.Background(), k)
		if werr != nil || gerr != nil {
			t.Fatalf("limit %d: sharded err %v, networked err %v", k, werr, gerr)
		}
		if len(want) != len(got) {
			t.Fatalf("limit %d: %d candidates, sharded %d", k, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("limit %d: candidate %d = %+v, sharded %+v", k, i, got[i], want[i])
			}
		}
		// Truncation equivalence: the top-k is a prefix of the full merge.
		for name, exp := range fulls {
			if k < len(exp) {
				exp = exp[:k]
			}
			if len(got) != len(exp) {
				t.Fatalf("limit %d: %d candidates, %s full-merge prefix %d", k, len(got), name, len(exp))
			}
			for i := range exp {
				if exp[i] != got[i] {
					t.Fatalf("limit %d: candidate %d = %+v, %s full-merge prefix %+v", k, i, got[i], name, exp[i])
				}
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	asked := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true, 8: true, 64: true}
	for _, l := range wireLimits {
		if !asked[l] {
			t.Fatalf("a shard was asked for limit %d, which no caller requested (over-fetch)", l)
		}
	}
	if len(wireLimits) == 0 {
		t.Fatal("no candidates request reached the hosts")
	}
}

// TestMutationOpTimeout: a hung shard host fails mutations fast with
// the typed shard_unavailable (cause op_timeout) instead of blocking
// the coordinator's write lock indefinitely.
func TestMutationOpTimeout(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	copts := shardrpc.CoordinatorOptions{
		OpTimeout: 400 * time.Millisecond,
		Client:    client.Options{Timeout: 10 * time.Second},
	}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, copts)
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	fb := firstCandidateFeedback(t, v)

	p.mu.Lock()
	p.delay = 3 * time.Second
	p.mu.Unlock()
	p.set("delay", "/v1/shard/feedback", -1)
	start := time.Now()
	err = co.SubmitFeedback(fb)
	elapsed := time.Since(start)
	se := wantShardUnavailable(t, err)
	if se.Details["cause"] != "op_timeout" {
		t.Fatalf("cause = %v, want op_timeout", se.Details["cause"])
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung feedback took %v, op timeout did not bound it", elapsed)
	}

	// Structural mutations get the same bound on every RPC they issue.
	p.set("delay", "", -1)
	src := schema.MustNewSource("slow01", []string{"name", "phone"},
		[][]string{{"ada", "555-0100"}})
	start = time.Now()
	_, err = co.AddSources([]*schema.Source{src})
	elapsed = time.Since(start)
	se = wantShardUnavailable(t, err)
	if se.Details["cause"] != "op_timeout" {
		t.Fatalf("structural cause = %v, want op_timeout", se.Details["cause"])
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung add took %v, op timeout did not bound it", elapsed)
	}
}

// TestRouteSoak drives concurrent routed readers, a feedback writer,
// the background prober plus a probe loop, the follower's sync loop, and
// a fault toggler that repeatedly kills and revives the primary — the
// race-detector soak `make soak` reruns. Reads and writes may fail only
// with typed errors, and the system must serve again after recovery.
func TestRouteSoak(t *testing.T) {
	rs := startRoutedSystem(t, true, shardrpc.CoordinatorOptions{
		OpTimeout: 2 * time.Second,
	})
	stopProber := rs.co.StartProber()
	defer stopProber()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = rs.f.Run(ctx) }()

	v, q := probeQuery(t, rs.co)
	cands, err := v.Candidates(context.Background(), 4)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 250 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	// The background prober ticks once a second, never inside the soak;
	// probe in a loop so routed reads race member-status updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rs.co.Probe(ctx)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := v.RunCtx(ctx, core.UDI, q); err != nil {
					var se *httpapi.StatusError
					if !errors.As(err, &se) {
						t.Errorf("untyped read error: %v", err)
						return
					}
				}
				_ = rs.co.Routing()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			c := cands[i%len(cands)]
			fb := core.Feedback{Source: c.Source, SrcAttr: c.SrcAttr,
				SchemaIdx: c.SchemaIdx, MedIdx: c.MedIdx, Confirmed: i%2 == 0}
			if err := rs.co.SubmitFeedback(fb); err != nil {
				var se *httpapi.StatusError
				if !errors.As(err, &se) {
					t.Errorf("untyped write error: %v", err)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rs.proxy.set("refuse", "", -1)
			time.Sleep(40 * time.Millisecond)
			rs.proxy.set("ok", "", 0)
			time.Sleep(80 * time.Millisecond)
		}
		rs.proxy.set("ok", "", 0)
	}()
	wg.Wait()
	cancel()

	rs.co.Probe(context.Background())
	if _, err := v.RunCtx(context.Background(), core.UDI, q); err != nil {
		t.Fatalf("read after soak recovery: %v", err)
	}
}
