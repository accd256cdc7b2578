package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
)

// params fixes everything about a run except the workload: two passes of
// the same commit compare only when these agree.
type params struct {
	Seed    int64
	Window  time.Duration // timed window of the plain pass
	Warmup  time.Duration // untimed, before the window
	Clients int           // closed-loop query clients in the plain pass

	CarSources   int           // serving corpus size (the paper's 817)
	ScaleSources int           // setup.scale5k corpus size
	ServeReps    int           // builds behind setup_s on serve.*
	ScaleReps    int           // builds behind setup_s on setup.scale5k
	WriteEvery   time.Duration // serve.mixed mutation schedule
	OutDir       string        // span files, run records, serve.mixed data dirs
}

const heldOut = 4 // sources serve.mixed adds and removes again

func defaultParams(seed int64, seconds float64, quick bool, outDir string) params {
	p := params{
		Seed: seed, Clients: 2,
		Window: time.Duration(seconds * float64(time.Second)),
		Warmup: 3 * time.Second,
		// ServeReps and ScaleReps are odd so the median is a measured build.
		CarSources: 817, ScaleSources: 5000, ServeReps: 9, ScaleReps: 11,
		WriteEvery: 100 * time.Millisecond, OutDir: outDir,
	}
	if p.Warmup > p.Window/4 {
		p.Warmup = p.Window / 4
	}
	if quick {
		p.Window, p.Warmup = 300*time.Millisecond, 50*time.Millisecond
		p.CarSources, p.ScaleSources, p.ServeReps, p.ScaleReps = 120, 500, 1, 3
		p.WriteEvery = 10 * time.Millisecond
	}
	return p
}

// inputs is what a workload feeds the system: generated from the seed and
// nothing else.
type inputs struct {
	corpus  *schema.Corpus
	queries []string
	gen     *datagen.Corpus  // golden standard behind the feedback oracle; nil on the scale corpus
	held    []*schema.Source // serve.mixed's add/remove batch
}

// carInputs is the paper's Figure 7 / §7.6 corpus with the domain's ten
// evaluation queries. It generates heldOut extra sources and serves the
// rest; generation is sequential, so the served prefix is exactly the
// corpus a plain datagen.Car(seed) of that size yields.
func carInputs(p params) (*inputs, error) {
	spec := datagen.Car(p.Seed)
	spec.NumSources = p.CarSources + heldOut
	gen, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	all := gen.Corpus.Sources
	corpus, err := schema.NewCorpus(gen.Corpus.Domain, all[:p.CarSources])
	if err != nil {
		return nil, err
	}
	return &inputs{corpus: corpus, queries: spec.Queries, gen: gen, held: all[p.CarSources:]}, nil
}

// scaleQueries pose a ten-query mix over the scale corpus's head
// attributes (its tail names are too rare to reach the mediated schema).
// Every query is selective: an unfiltered projection of 10 000 distinct
// rows takes most of a second, which would leave the window too few
// samples for a tail percentile.
var scaleQueries = []string{
	"SELECT title, director FROM Scale WHERE title LIKE 'v7%'",
	"SELECT title FROM Scale WHERE director LIKE 'v8%'",
	"SELECT title, runtime FROM Scale WHERE runtime LIKE 'v2%'",
	"SELECT director, language FROM Scale WHERE language LIKE 'v6%'",
	"SELECT title, country FROM Scale WHERE country LIKE 'v9%'",
	"SELECT title, director, runtime FROM Scale WHERE title LIKE 'v3%'",
	"SELECT runtime FROM Scale WHERE director = 'v100'",
	"SELECT title, language FROM Scale WHERE language LIKE 'v5%'",
	"SELECT director FROM Scale WHERE title LIKE 'v42%'",
	"SELECT title, director FROM Scale WHERE runtime LIKE 'v4%' AND director LIKE 'v3%'",
}

// hooks is where the traced pass attaches: every field nil means the
// system is built and served exactly as a deployment would.
type hooks struct {
	rec  *recorder
	wire *wireCounter
}

func (h hooks) backend(be httpapi.Backend) httpapi.Backend {
	if h.rec == nil {
		return be
	}
	return tracedBackend{Backend: be, rec: h.rec}
}

func (h hooks) handler(name func(*http.Request) string, next http.Handler) http.Handler {
	if h.rec == nil {
		return next
	}
	return traceHandler(h.rec, name, next)
}

// sut is one built and served system under test.
type sut struct {
	base  string          // the public /v1 surface
	be    httpapi.Backend // the backend behind it, for direct calls
	sys   *core.System    // single-core shapes only
	store *persist.Store  // serve.mixed only
	stop  []func()
}

func (s *sut) close() {
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
}

// listen serves h on a fresh loopback TCP port and returns its base URL.
func (s *sut) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // always ErrServerClosed: stop below is the only way out
		close(done)
	}()
	s.stop = append(s.stop, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// public serves the backend's /v1 surface, which completes the build; on
// failure it releases what the build had started.
func (s *sut) public(be httpapi.Backend, reg *obs.Registry, h hooks) (*sut, error) {
	srv := httpapi.NewBackendServer(h.backend(be), reg, httpapi.Options{})
	base, err := s.listen(h.handler(publicSpan, srv.Handler()))
	if err != nil {
		s.close()
		return nil, err
	}
	s.be, s.base = be, base
	return s, nil
}

// workload is one serving shape over one set of inputs.
type workload struct {
	name   string
	build  func(in *inputs, p params, h hooks) (*sut, error)
	scale  bool // the scale corpus and its build count, not the Car corpus
	shards int  // 0 = single core
	rpc    bool // shards are behind the wire
	mixed  bool // a writer runs beside the readers
}

var workloads = []workload{
	{name: "setup.scale5k", build: buildCore, scale: true},
	{name: "serve.core", build: buildCore},
	{name: "serve.shard4", build: buildShard, shards: 4},
	{name: "serve.rpc4", build: buildRPC, shards: 4, rpc: true},
	{name: "serve.mixed", build: buildMixed, mixed: true},
}

func (w workload) inputs(p params) (*inputs, error) {
	if w.scale {
		return &inputs{corpus: datagen.ScaleCorpus(p.ScaleSources, p.Seed), queries: scaleQueries}, nil
	}
	return carInputs(p)
}

// reps is how many builds stand behind setup_s.
func (w workload) reps(p params) int {
	if w.scale {
		return p.ScaleReps
	}
	return p.ServeReps
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func coreConfig() core.Config { return core.Config{Obs: obs.NewRegistry()} }

func buildCore(in *inputs, _ params, h hooks) (*sut, error) {
	sys, err := core.Setup(in.corpus, coreConfig())
	if err != nil {
		return nil, err
	}
	s := &sut{sys: sys}
	return s.public(httpapi.CoreBackend(sys), sys.Cfg.Obs, h)
}

func buildShard(in *inputs, _ params, h hooks) (*sut, error) {
	sh, err := shard.New(in.corpus, coreConfig(), shard.Options{Shards: 4})
	if err != nil {
		return nil, err
	}
	s := &sut{}
	return s.public(httpapi.ShardBackend(sh), sh.Obs(), h)
}

func buildRPC(in *inputs, _ params, h hooks) (*sut, error) {
	s := &sut{}
	addrs := make([]string, 4)
	for i := range addrs {
		reg := obs.NewRegistry()
		host, err := shardrpc.NewHost(core.Config{Obs: reg}, shardrpc.HostOptions{Obs: reg})
		if err == nil {
			leg := fmt.Sprintf("shardrpc.leg%d", i)
			addrs[i], err = s.listen(h.handler(func(*http.Request) string { return leg }, host.Handler()))
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	opts := shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()}
	if h.wire != nil {
		opts.Client = client.Options{HTTPClient: &http.Client{Transport: h.wire}}
	}
	co, err := shardrpc.NewCoordinator(in.corpus, coreConfig(), addrs, opts)
	if err != nil {
		s.close()
		return nil, err
	}
	return s.public(co, opts.Obs, h)
}

// buildMixed is a durable single core: fsync on, the store's default
// checkpoint every persist.DefaultCheckpointEvery commits.
func buildMixed(in *inputs, p params, h hooks) (*sut, error) {
	if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.OutDir, "mixed-")
	if err != nil {
		return nil, err
	}
	s := &sut{stop: []func(){func() { _ = os.RemoveAll(dir) }}}
	cfg := coreConfig()
	sys, st, err := persist.OpenStore(dir, cfg, persist.StoreOptions{Obs: cfg.Obs},
		func() (*core.System, error) { return core.Setup(in.corpus, cfg) })
	if err != nil {
		s.close()
		return nil, err
	}
	s.sys, s.store = sys, st
	s.stop = append(s.stop, func() { _ = st.Close() })
	return s.public(httpapi.CoreBackend(sys), cfg.Obs, h)
}
