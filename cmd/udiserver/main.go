// Command udiserver serves a configured integration system over HTTP.
//
// Usage:
//
//	udiserver -domain People -addr :8080
//	udiserver -load car.udi.gz -addr 127.0.0.1:9000
//	udiserver -data ./my-tables -max-inflight 32 -query-timeout 2s
//	udiserver -domain Car -data-dir /var/lib/udi/car
//	udiserver -domain Car -shards 4 -data-dir /var/lib/udi/car
//
// Networked topology (-role):
//
//	udiserver -role shard -addr :9001 -data-dir /var/lib/udi/shard-0
//	udiserver -role coordinator -domain Car -shard-addrs http://h1:9001,http://h2:9001
//	udiserver -role replica -follow http://h1:9001 -poll 500ms
//
// A shard host (-role shard) starts empty and serves the versioned shard
// RPC protocol (/v1/shard/*, /v1/wal); a coordinator pushes it state.
// With -data-dir the host checkpoints structural pushes, logs feedback
// in its WAL, and ships its committed WAL tail to replicas. The
// coordinator (-role coordinator) runs the global setup over
// -domain/-data and serves the public /v1 API by scatter-gather over the
// shard hosts — answers are bit-identical to -shards N
// in-process serving and to a single core. A replica (-role replica)
// bootstraps from -follow's snapshot, tails its WAL every -poll, and
// serves read-only /v1 (mutations answer 403 read_only) plus the
// read-only shard RPC surface, so a coordinator can fail reads over to it;
// /v1/schema reports the replication position and staleness.
//
// Replica failover: each -shard-addrs entry may append that shard's
// replicas after the primary, semicolon-separated —
//
//	udiserver -role coordinator -domain Car \
//	  -shard-addrs 'http://h1:9001;http://r1:9003,http://h2:9001' \
//	  -op-timeout 10s
//
// The coordinator probes every member's /v1/shard/status and sends each
// query's fan-out legs to the primary. A failed primary fails reads over
// to the first replica, in configured order, whose replication state is
// synced to the primary's last-known committed state (bit-identical
// answers — a dead primary commits nothing), while writes answer a typed
// 503 shard_unavailable. /v1/schema's "routing" object reports which
// member served each shard's last read leg and the failover and
// stale-refused counters. -op-timeout bounds every coordinator mutation
// RPC so a hung host fails typed instead of blocking forever.
//
// With -data-dir the server is durable: every committed mutation
// (feedback, source add/remove) is logged and fsynced before it is
// published or acknowledged, and every -checkpoint-every commits the system is
// snapshotted atomically and the log truncated. A restart with the same
// -data-dir recovers the exact last-committed state (snapshot + WAL tail
// replay; a torn final record from a mid-append crash is dropped, any
// other damage refuses startup). On the first start the initial system
// comes from -domain/-data/-load as usual; afterwards those flags are
// ignored in favor of the recovered state.
//
// With -shards N (N > 1) the server partitions the sources across N
// in-process shards by a stable hash of the source name and answers every
// query by scatter-gather — bit-identical to single-shard serving.
// Durable sharded mode lays out one WAL+checkpoint directory per shard
// (shard-000, shard-001, ...) under -data-dir; the shard count is fixed
// for the life of the directory. /v1/schema additionally reports the
// per-shard epoch vector. Snapshot restore (-load) is single-core only.
//
// Endpoints (all under /v1; the pre-/v1 unversioned paths are retired
// and answer 404):
//
//	GET  /v1/healthz     liveness, source count, serving epoch
//	GET  /v1/schema      probabilistic + consolidated mediated schemas,
//	                     epoch, staleness
//	POST /v1/query       {"query": "SELECT ...", "approach": "UDI"|
//	                     "UDI-Consolidated", "top": 10,
//	                     "semantics": "by-table"|"by-tuple"}
//	POST /v1/explain     {"query": "...", "values": [...]} — provenance
//	POST /v1/feedback    {"source": "...", "attr": "...", "med_name":
//	                     "...", "confirmed": true} — pay-as-you-go loop
//	GET  /v1/candidates  feedback question queue
//
// Errors use one JSON envelope: {"error": {"code", "message", "details"}}
// with codes bad_query, unknown_source, timeout, canceled, overloaded,
// internal, shard_unavailable, read_only, not_ready. Overload answers
// 429 + Retry-After; an expired -query-timeout answers 504.
//
// Observability:
//
//	GET /v1/metrics    JSON snapshot of counters and latency histograms
//	GET /debug/vars    expvar-compatible dump (includes the "udi" key)
//	GET /debug/pprof/  standard Go profiling handlers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"udi/cmd/internal/boot"
	"udi/internal/core"
	"udi/internal/httpapi"
	"udi/internal/persist"
	"udi/internal/replica"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
)

// serveConfig carries the parsed topology flags into run.
type serveConfig struct {
	role            string
	follow          string
	shardAddrs      string
	poll            time.Duration
	opTimeout       time.Duration
	domain          string
	data            string
	load            string
	sources         int
	shards          int
	addr            string
	dataDir         string
	checkpointEvery uint64
}

func main() {
	domain := flag.String("domain", "People", "synthetic domain to serve (Movie|Car|People|Course|Bib)")
	data := flag.String("data", "", "serve a directory of CSV files instead of a synthetic domain")
	load := flag.String("load", "", "serve a system snapshot instead of setting up")
	sources := flag.Int("sources", 0, "limit the number of sources (0 = full domain)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	role := flag.String("role", "serve", "process role: serve (in-process system), shard (RPC shard host), coordinator (scatter-gather over -shard-addrs), replica (WAL follower of -follow)")
	follow := flag.String("follow", "", "replica mode: primary address to bootstrap from and tail (e.g. http://host:9001)")
	shardAddrs := flag.String("shard-addrs", "", "coordinator mode: comma-separated shard entries, one per shard; an entry may append semicolon-separated replica addresses after the primary (primary;replica1;replica2)")
	poll := flag.Duration("poll", 500*time.Millisecond, "replica mode: WAL polling interval")
	opTimeout := flag.Duration("op-timeout", 0, "coordinator mode: per-RPC timeout for mutations (feedback, source changes); a hung shard host fails typed instead of blocking (0 = no bound)")
	dataDir := flag.String("data-dir", "", "durable mode: WAL + checkpoints in this directory; restarts recover the last committed state")
	shards := flag.Int("shards", 1, "partition the sources across this many in-process shards and answer by scatter-gather")
	checkpointEvery := flag.Uint64("checkpoint-every", persist.DefaultCheckpointEvery, "commits between checkpoint rotations in -data-dir mode")
	top := flag.Int("top", 0, "default answer limit for /v1/query when the request sets no \"top\" (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent query-path requests; excess gets 429 (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-request deadline for query-path requests; expiry gets 504 (0 = none)")
	feedbackBatch := flag.Int("feedback-batch", 0, "max feedback submissions committed under one WAL fsync (0 = default 64)")
	verbose := flag.Bool("verbose", false, "log one line per request")
	flag.Parse()

	opts := httpapi.Options{
		DefaultTop:   *top,
		MaxInFlight:  *maxInflight,
		QueryTimeout: *queryTimeout,
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	cfg := core.Config{FeedbackBatch: *feedbackBatch}
	sc := serveConfig{
		role: *role, follow: *follow, shardAddrs: *shardAddrs, poll: *poll, opTimeout: *opTimeout,
		domain: *domain, data: *data, load: *load, sources: *sources,
		shards: *shards, addr: *addr, dataDir: *dataDir, checkpointEvery: *checkpointEvery,
	}
	if err := run(sc, cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "udiserver:", err)
		os.Exit(1)
	}
}

func run(sc serveConfig, cfg core.Config, opts httpapi.Options) error {
	switch sc.role {
	case "serve":
		return runServe(sc, cfg, opts)
	case "shard":
		return runShardHost(sc, cfg)
	case "coordinator":
		return runCoordinator(sc, cfg, opts)
	case "replica":
		return runReplica(sc, cfg, opts)
	default:
		return fmt.Errorf("unknown -role %q (serve|shard|coordinator|replica)", sc.role)
	}
}

// runShardHost serves one shard's state over the shard RPC protocol. The
// host starts empty (a coordinator pushes state) unless -data-dir holds
// a previous state to warm-restart from.
func runShardHost(sc serveConfig, cfg core.Config) error {
	host, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{
		DataDir: sc.dataDir,
		Store:   persist.StoreOptions{CheckpointEvery: sc.checkpointEvery},
	})
	if err != nil {
		return err
	}
	return serveHTTP(sc.addr, host.Handler(), "shard host", host.Close)
}

// runCoordinator sets up the corpus globally and serves /v1 by
// scatter-gather over the remote shard hosts.
func runCoordinator(sc serveConfig, cfg core.Config, opts httpapi.Options) error {
	if sc.shardAddrs == "" {
		return fmt.Errorf("-role coordinator requires -shard-addrs")
	}
	addrs := strings.Split(sc.shardAddrs, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	corpus, err := boot.Corpus(sc.domain, sc.data, sc.sources)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pushing %d sources across %d shard hosts...\n", len(corpus.Sources), len(addrs))
	co, err := shardrpc.NewCoordinator(corpus, cfg, addrs, shardrpc.CoordinatorOptions{
		OpTimeout: sc.opTimeout,
	})
	if err != nil {
		return err
	}
	stopProber := co.StartProber()
	api := httpapi.NewBackendServer(co, nil, opts)
	return serveHTTP(sc.addr, api.Handler(),
		fmt.Sprintf("coordinator (%d sources, %d shards)", len(corpus.Sources), len(addrs)),
		func() error { stopProber(); return nil })
}

// runReplica bootstraps from the primary, keeps tailing its WAL, and
// serves the read-only /v1 surface.
func runReplica(sc serveConfig, cfg core.Config, opts httpapi.Options) error {
	if sc.follow == "" {
		return fmt.Errorf("-role replica requires -follow")
	}
	f := replica.New(sc.follow, cfg, replica.Options{PollInterval: sc.poll})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		// Not fatal: the primary may still be coming up; Run keeps trying
		// and the API answers not_ready until the first sync lands.
		fmt.Fprintln(os.Stderr, "initial sync:", err)
	}
	go f.Run(ctx)
	api := httpapi.NewBackendServer(f.Backend(), nil, opts)
	// The read-only shard RPC surface rides beside the public /v1 API so
	// a routing coordinator can list this replica in a shard's read set.
	mux := http.NewServeMux()
	mux.Handle("/v1/shard/", f.ShardHandler())
	mux.Handle("/", api.Handler())
	return serveHTTP(sc.addr, mux, "replica of "+sc.follow, nil)
}

func runServe(sc serveConfig, cfg core.Config, opts httpapi.Options) error {
	domain, data, load := sc.domain, sc.data, sc.load
	sources, shards := sc.sources, sc.shards
	addr, dataDir, checkpointEvery := sc.addr, sc.dataDir, sc.checkpointEvery
	var api *httpapi.Server
	var numSources int
	// finish runs after the listener drains: fold state into a final
	// checkpoint and release the WAL(s).
	finish := func() error { return nil }
	if shards > 1 {
		sh, err := openSharded(domain, data, load, sources, shards, dataDir, checkpointEvery, cfg)
		if err != nil {
			return err
		}
		// Per-shard durability status is not surfaced through /v1/schema
		// (the single Durability field models one store); the epoch vector
		// in the schema response is the sharded staleness signal.
		api = httpapi.NewShardedServer(sh, opts)
		numSources = sh.View().NumSources()
		finish = func() error {
			if dataDir != "" {
				if err := sh.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "final checkpoint:", err)
				}
			}
			return sh.Close()
		}
	} else {
		sys, store, err := openSystem(domain, data, load, sources, dataDir, checkpointEvery, cfg)
		if err != nil {
			return err
		}
		if store != nil {
			opts.Durability = func() httpapi.DurabilityStatus {
				s := store.Status()
				return httpapi.DurabilityStatus{
					CheckpointSeq: s.CheckpointSeq,
					CheckpointAt:  s.CheckpointAt,
					LastSeq:       s.LastSeq,
					WALRecords:    s.WALRecords,
					WALBytes:      s.WALBytes,
					Replayed:      s.Replayed,
				}
			}
			finish = func() error {
				// Fold the WAL tail into a final checkpoint so the next start
				// replays nothing; the WAL already makes this crash-safe, so a
				// failed checkpoint only costs the next start replay time.
				if err := store.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "final checkpoint:", err)
				}
				return store.Close()
			}
		}
		api = httpapi.NewServer(sys, opts)
		numSources = len(sys.Corpus.Sources)
	}
	return serveHTTP(addr, api.Handler(), fmt.Sprintf("%d sources", numSources), finish)
}

// serveHTTP runs the listener until SIGINT/SIGTERM, then drains
// in-flight requests before exiting so clients never see a connection
// reset on deploys. finish (may be nil) runs after the drain: fold state
// into a final checkpoint and release the WAL(s).
func serveHTTP(addr string, handler http.Handler, what string, finish func() error) error {
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serving %s on http://%s\n", what, addr)
		errc <- server.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if finish != nil {
			return finish()
		}
		return nil
	}
}

// openSharded builds or recovers the scatter-gather serving system. The
// corpus comes from -domain or -data exactly as in single-core mode;
// -load snapshots carry single-core serving state and are refused.
func openSharded(domain, data, load string, sources, shards int, dataDir string, checkpointEvery uint64, cfg core.Config) (*shard.System, error) {
	if load != "" {
		return nil, fmt.Errorf("-load serves a single-core snapshot; it cannot be combined with -shards %d", shards)
	}
	setup := func() (*schema.Corpus, error) { return boot.Corpus(domain, data, sources) }
	if dataDir == "" {
		corpus, err := setup()
		if err != nil {
			return nil, err
		}
		return shard.New(corpus, cfg, shard.Options{Shards: shards})
	}
	sh, err := shard.Open(dataDir, cfg,
		shard.Options{Shards: shards, CheckpointEvery: checkpointEvery}, setup)
	if err != nil {
		return nil, fmt.Errorf("data dir %s: %w", dataDir, err)
	}
	return sh, nil
}

// openSystem builds or recovers the serving system. Without a data
// directory it is the in-memory boot.System; with one, the durable store
// owns the lifecycle: setup runs only when the directory is empty, and a
// corrupt snapshot or WAL refuses startup with persist.ErrCorrupt /
// wal.ErrCorrupt rather than serving a state that was never committed.
func openSystem(domain, data, load string, sources int, dataDir string, checkpointEvery uint64, cfg core.Config) (*core.System, *persist.Store, error) {
	if dataDir == "" {
		sys, err := boot.System(domain, data, load, sources, cfg)
		return sys, nil, err
	}
	sys, store, err := persist.OpenStore(dataDir, cfg,
		persist.StoreOptions{CheckpointEvery: checkpointEvery},
		func() (*core.System, error) {
			return boot.System(domain, data, load, sources, cfg)
		})
	if err != nil {
		return nil, nil, fmt.Errorf("data dir %s: %w", dataDir, err)
	}
	if s := store.Status(); s.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "recovered %s: replayed %d logged mutations onto checkpoint seq %d\n",
			dataDir, s.Replayed, s.CheckpointSeq)
	}
	return sys, store, nil
}
