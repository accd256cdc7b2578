package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/persist"
	"udi/internal/shard"
	"udi/internal/sqlparse"
)

// result is one pass of one workload.
type result struct {
	Workload  string `json:"workload"`
	Run       int    `json:"run"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the named metrics of the pass: every end-to-end metric
	// for a plain pass, every per-layer metric for a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Diagnostics are printed and recorded but carry no bound.
	Diagnostics map[string]metric `json:"diagnostics"`
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// opsInWindow is how many mutations the schedule holds: it fills the first
// nine tenths of the window, so an op delayed by a checkpoint still has
// room to be acknowledged before the window ends.
func opsInWindow(window time.Duration, p params) int {
	return max(int(0.9*float64(window)/float64(p.WriteEvery)), 1)
}

// checkpointCount counts the store's checkpoints from outside, by watching
// Status().CheckpointSeq move.
type checkpointCount struct {
	store *persist.Store
	last  uint64
	n     int
}

// watchCheckpoints starts counting from the store's current checkpoint; a
// system without a store has no writer and is never observed.
func watchCheckpoints(st *persist.Store) *checkpointCount {
	if st == nil {
		return &checkpointCount{}
	}
	return &checkpointCount{store: st, last: st.Status().CheckpointSeq}
}

func (c *checkpointCount) observe() {
	if seq := c.store.Status().CheckpointSeq; seq != c.last {
		c.last = seq
		c.n++
	}
}

// window runs one measured window: the closed-loop readers and, when there
// are ops (serve.mixed), the scheduled writer beside them.
func (l load) window(readers int, length time.Duration, ok check, onRound func(int), ops []op, afterAck func()) (reads, writes []sample) {
	var wg sync.WaitGroup
	t0 := time.Now()
	if len(ops) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = l.writer(ops, t0, afterAck)
		}()
	}
	reads = l.readers(readers, length, ok, onRound)
	wg.Wait()
	return reads, writes
}

// mixedCheck is the in-window check where a writer races the readers:
// well-formed answers, and an epoch that never goes back for any client.
func mixedCheck(clients int) check {
	last := make([]uint64, clients) // element c is touched by client c alone
	return func(c, _ int, r *client.QueryResponse) bool {
		ok := wellFormed(r) && r.Epoch >= last[c]
		last[c] = r.Epoch
		return ok
	}
}

// countWrites adds the writer's ops to the pass's totals: an op fails when
// the server refused it or its acknowledgement missed the window. The late
// ones are also reported on their own, because on a machine too slow for
// the schedule they say nothing about the answers.
func countWrites(res *result, writes []sample, length time.Duration) (latencies []float64) {
	late := 0
	for _, s := range writes {
		res.Attempted++
		if !s.ok || s.end > length {
			res.Failed++
		}
		if s.ok && s.end > length {
			late++
		}
		latencies = append(latencies, ms(int64(s.end-s.start)))
	}
	res.Diagnostics["mutations_late"] = scalar("count", float64(late))
	return latencies
}

// finalCheck asks every query once more after the writer drained: the
// served system must now equal the twin the op list was generated on.
func finalCheck(res *result, base string, queries []string, want []expected) {
	cl := newClient(base, nil)
	for i, q := range queries {
		res.Attempted++
		resp, err := cl.Query(context.Background(), client.QueryRequest{Query: q, Top: topK})
		if err != nil || !want[i].matches(resp) {
			res.Failed++
		}
	}
}

// plainPass measures the end-to-end metrics of one workload with nothing
// wrapped around the system.
func plainPass(w workload, p params) (*result, error) {
	in, err := w.inputs(p)
	if err != nil {
		return nil, err
	}
	// The oracle is built, asked and dropped before the system under test
	// exists, so heap_mb reads the system alone.
	ref, err := core.Setup(in.corpus, coreConfig())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	want, err := oracleAnswers(ref, in.queries)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var ops []op
	var final []expected
	if w.mixed {
		if ops, err = planOps(ref, in, opsInWindow(p.Window, p)); err != nil {
			return nil, err
		}
		if final, err = oracleAnswers(ref, in.queries); err != nil {
			return nil, err
		}
	}
	ref = nil

	// Half of the builds behind setup_s run before the window and half
	// after it, each on a collected heap with nothing else alive: a burst of
	// machine noise shorter than the window then reaches a minority of them
	// and leaves their median alone. The last build before the window is
	// the system the window measures.
	var s *sut
	var setups []float64
	sums := map[uint64]bool{}
	builds := func(n int) error {
		for i := 0; i < n; i++ {
			if s != nil {
				s.close()
				s = nil
			}
			runtime.GC()
			t0 := time.Now()
			if s, err = w.build(in, p, hooks{}); err != nil {
				return fmt.Errorf("build: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if s.sys != nil {
				sums[checksum(s.sys)] = true
			}
		}
		return nil
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	if err := builds((w.reps(p) + 1) / 2); err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	nReaders := p.Clients
	ok := check(func(_, qi int, r *client.QueryResponse) bool { return want[qi].matches(r) })
	if w.mixed {
		nReaders = p.Clients - 1 // the writer is the other connection
		ok = mixedCheck(nReaders)
	}
	ckpt := watchCheckpoints(s.store)
	l := load{base: s.base, queries: in.queries, p: p}

	l.readers(nReaders, p.Warmup, anyAnswer, nil)
	heap := liveHeapMB()
	reads, writes := l.window(nReaders, p.Window, ok, nil, ops, ckpt.observe)

	t := tallyOf(reads, p.Window)
	res.Attempted, res.Failed = t.attempted, t.failed
	if w.mixed {
		lat := countWrites(res, writes, p.Window)
		finalCheck(res, s.base, in.queries, final)
		res.Diagnostics["mutation_p50_ms"] = medianOf("ms", lat)
		res.Diagnostics["mutation_max_ms"] = pctOf("ms", lat, 100)
		res.Diagnostics["persist.checkpoints"] = scalar("count", float64(ckpt.n))
	}
	if err := builds(w.reps(p) / 2); err != nil {
		return nil, err
	}
	if len(sums) > 1 {
		// Builds of one corpus disagreed: nothing measured on them counts.
		res.Failed = res.Attempted
	}

	res.Metrics["setup_s"] = medianOf("s", setups)
	qps := medianOf("1/s", t.perSecond)
	qps.Value, qps.N = t.qps, t.attempted
	res.Metrics["query_qps"] = qps
	res.Metrics["query_p50_ms"] = medianOf("ms", t.latencies)
	res.Metrics["query_p95_ms"] = pctOf("ms", t.latencies, 95)
	res.Metrics["heap_mb"] = scalar("MB", heap)
	res.Diagnostics["query_p99_ms"] = pctOf("ms", t.latencies, 99)
	res.Diagnostics["query_tail_pct"] = scalar("%", tailPercentile(len(t.latencies)))
	res.Diagnostics["setup_checksums"] = scalar("count", float64(len(sums)))
	res.Diagnostics["failed_share"] = scalar("share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = res.Failed == 0
	return res, nil
}

// perLayer lists every per-layer metric with its unit. A traced pass
// reports all of them on every workload; one whose layer the workload does
// not run reads 0.
var perLayer = [][2]string{
	{"sqlparse.parse_us", "us"},
	{"answer.run_warm_ms", "ms"},
	{"answer.run_cold_ms", "ms"},
	{"answer.plan_hit_ratio", "ratio"},
	{"answer.topk_us", "us"},
	{"shard.run_ms", "ms"},
	{"shard.overhead_ratio", "ratio"},
	{"shardrpc.run_ms", "ms"},
	{"shardrpc.wire_ratio", "ratio"},
	{"shardrpc.leg_ms", "ms"},
	{"shardrpc.coord_self_ms", "ms"},
	{"shardrpc.requests_per_query", "count"},
	{"shardrpc.bytes_per_query", "bytes"},
	{"httpapi.handle_ms", "ms"},
	{"httpapi.self_ms", "ms"},
	{"client.self_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"persist.commit_ms", "ms"},
	{"wal.bytes_per_commit", "bytes"},
	{"persist.checkpoints", "count"},
	{"mutation_p50_ms", "ms"},
	{"mutation_max_ms", "ms"},
	{"core.import_ms", "ms"},
	{"mediate.generate_ms", "ms"},
	{"pmapping.build_ms", "ms"},
	{"consolidate.ms", "ms"},
	{"core.import_share", "share"},
	{"mediate.generate_share", "share"},
	{"pmapping.build_share", "share"},
	{"consolidate.share", "share"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_kb_per_op", "kB"},
	{"proc.gc_pause_ms", "ms/s"},
	{"trace_overhead_pct", "%"},
}

// procDelta accumulates the process's allocation and GC counters over the
// intervals between start and stop.
type procDelta struct {
	mallocs, bytes, pauseNS uint64
	wall                    time.Duration
	from                    runtime.MemStats
	since                   time.Time
	running                 bool
}

func (d *procDelta) start() {
	runtime.ReadMemStats(&d.from)
	d.since, d.running = time.Now(), true
}

func (d *procDelta) stop() {
	if !d.running {
		return
	}
	var to runtime.MemStats
	runtime.ReadMemStats(&to)
	d.mallocs += to.Mallocs - d.from.Mallocs
	d.bytes += to.TotalAlloc - d.from.TotalAlloc
	d.pauseNS += to.PauseTotalNs - d.from.PauseTotalNs
	d.wall += time.Since(d.since)
	d.running = false
}

func anyAnswer(int, int, *client.QueryResponse) bool { return true }

// runLoop calls View.RunCtx directly, in whole rounds of the query mix for
// at least budget, recording each call as a span; it returns calls made and
// failed. before, if set, runs ahead of every call, outside its span.
func runLoop(rec *recorder, name string, be httpapi.Backend, queries []*sqlparse.Query, budget time.Duration, before func()) (n, failed int) {
	v, err := be.View()
	if err != nil {
		return 1, 1
	}
	for t0 := time.Now(); time.Since(t0) < budget || n%len(queries) != 0 || n == 0; n++ {
		if before != nil {
			before()
		}
		call := func() {
			if _, err := v.RunCtx(context.Background(), core.UDI, queries[n%len(queries)]); err != nil {
				failed++
			}
		}
		if name == "" {
			call()
		} else {
			rec.timed(name, call)
		}
	}
	return n, failed
}

// tracedPass measures the per-layer metrics of one workload: direct calls
// into each layer's public functions, then a single-client window over HTTP
// whose rounds alternate between traced and untraced.
func tracedPass(w workload, p params) (*result, error) {
	in, err := w.inputs(p)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Traced: true, Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d[0]] = metric{Unit: d[1]}
	}
	set := func(name string, m metric) {
		m.Unit = res.Metrics[name].Unit
		res.Metrics[name] = m
	}
	count := func(n, failed int) {
		res.Attempted += n
		res.Failed += failed
	}
	rec := newRecorder()
	rec.on.Store(true)
	slot, win := p.Window/8, p.Window/4

	// A single core over the same corpus: the set-up stages, and the
	// baseline every other shape's run time is a ratio of.
	ref, err := core.Setup(in.corpus, coreConfig())
	if err != nil {
		return nil, err
	}
	total := ref.Timings.Total().Seconds()
	for _, st := range []struct {
		ms, share string
		d         time.Duration
	}{
		{"core.import_ms", "core.import_share", ref.Timings.Import},
		{"mediate.generate_ms", "mediate.generate_share", ref.Timings.MedSchema},
		{"pmapping.build_ms", "pmapping.build_share", ref.Timings.PMappings},
		{"consolidate.ms", "consolidate.share", ref.Timings.Consolidation},
	} {
		set(st.ms, scalar("", ms(st.d.Nanoseconds())))
		set(st.share, scalar("", st.d.Seconds()/total))
	}

	queries := make([]*sqlparse.Query, len(in.queries))
	for round := 0; round < 20; round++ {
		for i, qs := range in.queries {
			rec.timed("sqlparse.parse", func() { queries[i], err = sqlparse.Parse(qs) })
			if err != nil {
				return nil, err
			}
		}
	}
	refBE := httpapi.CoreBackend(ref)
	rec.on.Store(false)
	count(runLoop(rec, "warm-up", refBE, queries, 0, nil)) // fills the plan cache
	rec.on.Store(true)
	reg := ref.Cfg.Obs
	hits, misses := reg.Counter("plan_cache.hits").Value(), reg.Counter("plan_cache.misses").Value()
	count(runLoop(rec, "answer.run_warm", refBE, queries, slot, nil))
	hits, misses = reg.Counter("plan_cache.hits").Value()-hits, reg.Counter("plan_cache.misses").Value()-misses
	set("answer.plan_hit_ratio", scalar("", float64(hits)/float64(max(hits+misses, 1))))
	count(runLoop(rec, "answer.run_cold", refBE, queries, slot, ref.Engine().InvalidatePlans))
	sn := ref.Snapshot()
	for _, q := range queries {
		rs, err := sn.RunCtx(context.Background(), core.UDI, q)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20; i++ {
			rec.timed("answer.topk", func() { rs.TopK(topK) })
		}
	}

	h := hooks{rec: rec}
	if w.rpc {
		// The in-process scatter-gather over the same corpus is the base of
		// the wire ratio; the coordinator's own traffic is counted exactly.
		sh, err := shard.New(in.corpus, coreConfig(), shard.Options{Shards: w.shards})
		if err != nil {
			return nil, err
		}
		count(runLoop(rec, "shard.run", httpapi.ShardBackend(sh), queries, slot, nil))
		h.wire = &wireCounter{base: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	s, err := w.build(in, p, h)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	defer s.close()
	switch {
	case w.rpc:
		rec.on.Store(false)
		count(runLoop(rec, "warm-up", s.be, queries, 0, nil)) // opens the coordinator's connections
		rec.on.Store(true)
		req0, bytes0 := h.wire.requests.Load(), h.wire.bytes.Load()
		n, failed := runLoop(rec, "shardrpc.run", s.be, queries, slot, nil)
		count(n, failed)
		set("shardrpc.requests_per_query", scalar("", float64(h.wire.requests.Load()-req0)/float64(n)))
		set("shardrpc.bytes_per_query", scalar("", float64(h.wire.bytes.Load()-bytes0)/float64(n)))
	case w.shards > 0:
		count(runLoop(rec, "shard.run", s.be, queries, slot, nil))
	}

	// The HTTP window: one client, so a shard leg lies inside exactly one
	// request. The recorder flips at every round of the mix, which
	// interleaves traced rounds with untraced ones of the same queries:
	// their latency difference is the tracing overhead, and the process
	// counters are read over the untraced rounds only. serve.mixed keeps
	// its writer, on the twin's op list.
	want, err := oracleAnswers(ref, in.queries)
	if err != nil {
		return nil, err
	}
	ok := check(func(_, qi int, r *client.QueryResponse) bool { return want[qi].matches(r) })
	var ops []op
	if w.mixed {
		if ops, err = planOps(ref, in, opsInWindow(2*win, p)); err != nil {
			return nil, err
		}
		ok = mixedCheck(1)
	}
	ckpt := watchCheckpoints(s.store)
	l := load{base: s.base, rec: rec, queries: in.queries, p: p}
	rec.on.Store(false)
	l.readers(1, min(p.Warmup, win), anyAnswer, nil)
	var proc procDelta
	reads, writes := l.window(1, 2*win, ok, func(round int) {
		proc.stop()
		rec.on.Store(round%2 == 0)
		if round%2 == 1 {
			proc.start()
		}
	}, ops, ckpt.observe)
	proc.stop()
	rec.on.Store(false)
	t := tallyOf(reads, 2*win)
	count(t.attempted, t.failed)
	var tracedMS, plainMS []float64
	for i, l := range t.latencies {
		if i/len(in.queries)%2 == 0 {
			tracedMS = append(tracedMS, l)
		} else {
			plainMS = append(plainMS, l)
		}
	}
	if n := float64(len(plainMS)); n > 0 {
		set("proc.allocs_per_op", scalar("", float64(proc.mallocs)/n))
		set("proc.alloc_kb_per_op", scalar("", float64(proc.bytes)/1024/n))
		set("proc.gc_pause_ms", scalar("", ms(int64(proc.pauseNS))/proc.wall.Seconds()))
		set("trace_overhead_pct", scalar("", 100*(mean(tracedMS)-mean(plainMS))/mean(plainMS)))
	}

	if w.mixed {
		final, err := oracleAnswers(ref, in.queries)
		if err != nil {
			return nil, err
		}
		finalCheck(res, s.base, in.queries, final)
		mutations := countWrites(res, writes, 2*win)
		set("mutation_p50_ms", medianOf("", mutations))
		set("mutation_max_ms", pctOf("", mutations, 100))
		// The same feedback item committed in memory and durably, each by a
		// direct call: the difference is what durability costs a commit.
		var walBytes []float64
		oracle := &feedback.GoldenOracle{Corpus: in.gen}
		rec.on.Store(true)
		for _, c := range feedback.NewSession(ref, oracle).Candidates(3 * feedbackPerCycle) {
			fb, valid := feedbackFor(ref.Snapshot(), oracle, c)
			if !valid {
				continue
			}
			rec.timed("core.commit", func() { err = ref.SubmitFeedback(fb) })
			if err != nil {
				continue // the twin refuses it, so the served system never sees it
			}
			before := s.store.Status().WALBytes
			rec.timed("persist.commit", func() { err = s.sys.SubmitFeedback(fb) })
			res.Attempted++
			if err != nil {
				res.Failed++
			}
			ckpt.observe()
			if grown := s.store.Status().WALBytes - before; grown > 0 {
				walBytes = append(walBytes, float64(grown))
			}
		}
		set("wal.bytes_per_commit", medianOf("", walBytes))
		set("persist.checkpoints", scalar("", float64(ckpt.n)))
	}

	rec.on.Store(false)
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	link(spans)
	if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(p.OutDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	dur, self := layerTimes(spans)
	// Queries of the mix cost very different amounts and a single caller
	// sees little noise, so the median of raw per-query samples would sit on
	// the gap between two query classes. A query-shaped layer therefore
	// reports the median over rounds of the round's mean per query.
	nq := len(in.queries)
	med := func(name string, v []float64, scale float64, per int) float64 {
		v = roundMeans(v, per)
		for i := range v {
			v[i] *= scale
		}
		m := medianOf("", v)
		set(name, m)
		return m.Value
	}
	med("sqlparse.parse_us", dur["sqlparse.parse"], 1000, nq)
	warm := med("answer.run_warm_ms", dur["answer.run_warm"], 1, nq)
	med("answer.run_cold_ms", dur["answer.run_cold"], 1, nq)
	med("answer.topk_us", dur["answer.topk"], 1000, 1)
	med("httpapi.handle_ms", dur["httpapi.handle"], 1, nq)
	med("httpapi.self_ms", self["httpapi.handle"], 1, nq)
	med("client.self_ms", self["client.query"], 1, nq)
	med("core.commit_ms", dur["core.commit"], 1, 1)
	med("persist.commit_ms", dur["persist.commit"], 1, 1)
	if w.shards > 0 {
		sharded := med("shard.run_ms", dur["shard.run"], 1, nq)
		set("shard.overhead_ratio", scalar("", sharded/warm))
		if w.rpc {
			wired := med("shardrpc.run_ms", dur["shardrpc.run"], 1, nq)
			set("shardrpc.wire_ratio", scalar("", wired/sharded))
			med("shardrpc.leg_ms", dur["shardrpc.leg"], 1, nq*w.shards)
			med("shardrpc.coord_self_ms", self["shardrpc.run"], 1, nq)
		}
	}
	res.Diagnostics["spans"] = scalar("count", float64(len(spans)))
	res.Diagnostics["backend.run_ms"] = medianOf("ms", roundMeans(dur["backend.run"], nq))
	res.Diagnostics["query_ms.1client"] = medianOf("ms", roundMeans(plainMS, nq))
	res.Diagnostics["failed_share"] = scalar("share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = res.Failed == 0
	return res, nil
}
