package shardrpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// faultProxy sits between the coordinator and one shard host and
// injects the failure modes the degradation contract is written
// against: refused connections, responses dropped after the request was
// applied, bodies truncated mid-stream, and slow answers.
type faultProxy struct {
	target string
	hc     *http.Client

	mu    sync.Mutex
	mode  string // "ok", "refuse", "drop-response", "truncate", "delay"
	path  string // fault only this path ("" = every path)
	fails int    // remaining faulty requests (-1 = unlimited)
	delay time.Duration
	seen  map[string]int
}

func newFaultProxy(t *testing.T, target string) (*faultProxy, string) {
	t.Helper()
	p := &faultProxy{target: target, hc: &http.Client{}, mode: "ok", seen: map[string]int{}}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv.URL
}

func (p *faultProxy) set(mode, path string, fails int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode, p.path, p.fails = mode, path, fails
}

func (p *faultProxy) count(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[path]
}

func hijackClose(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("faultProxy: response writer is not hijackable")
	}
	conn, _, err := hj.Hijack()
	if err == nil {
		conn.Close()
	}
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.seen[r.URL.Path]++
	mode := "ok"
	if p.mode != "ok" && (p.path == "" || p.path == r.URL.Path) && p.fails != 0 {
		mode = p.mode
		if p.fails > 0 {
			p.fails--
		}
	}
	delay := p.delay
	p.mu.Unlock()

	switch mode {
	case "refuse":
		// Connection dies before the request reaches the host.
		hijackClose(w)
		return
	case "delay":
		time.Sleep(delay)
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		hijackClose(w)
		return
	}
	req, err := http.NewRequest(r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.hc.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		hijackClose(w)
		return
	}

	switch mode {
	case "drop-response":
		// The host applied the request; the answer never arrives.
		hijackClose(w)
		return
	case "truncate":
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("Content-Length", itoa(len(data)))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(data[:len(data)/2])
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

func itoa(n int) string { return strconv.Itoa(n) }

// startFaultedSystem brings up one real host plus a fault proxy in front
// of it and a coordinator pointed at the proxy.
func startFaultedSystem(t *testing.T, c *schema.Corpus, cfg core.Config, copts shardrpc.CoordinatorOptions) (*shardrpc.Coordinator, *faultProxy, string) {
	t.Helper()
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	hostSrv := httptest.NewServer(h.Handler())
	t.Cleanup(hostSrv.Close)
	t.Cleanup(func() { h.Close() })
	p, proxyURL := newFaultProxy(t, hostSrv.URL)
	copts.Obs = obs.NewRegistry()
	co, err := shardrpc.NewCoordinator(c, cfg, []string{proxyURL}, copts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return co, p, hostSrv.URL
}

func hostStatus(t *testing.T, addr string) shardrpc.StatusResponse {
	t.Helper()
	resp, err := http.Get(addr + "/v1/shard/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st shardrpc.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func faultCorpus(t *testing.T) *schema.Corpus {
	t.Helper()
	spec := datagen.People(23)
	spec.NumSources = 6
	return datagen.MustGenerate(spec).Corpus
}

func wantShardUnavailable(t *testing.T, err error) *httpapi.StatusError {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error, got nil")
	}
	var se *httpapi.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a StatusError", err, err)
	}
	if se.Status != http.StatusServiceUnavailable || se.Code != httpapi.CodeShardUnavailable {
		t.Fatalf("got status %d code %q, want 503 %q", se.Status, se.Code, httpapi.CodeShardUnavailable)
	}
	if se.Details == nil || se.Details["shard"] == nil || se.Details["cause"] == nil {
		t.Fatalf("shard_unavailable details missing shard/cause: %v", se.Details)
	}
	return se
}

func mustParse(t *testing.T, s string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return q
}

func probeQuery(t *testing.T, co *shardrpc.Coordinator) (httpapi.View, *sqlparse.Query) {
	t.Helper()
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	q := mustParse(t, "SELECT "+v.Target().Attrs[0][0]+" FROM sources")
	return v, q
}

// TestQueryRetriesTransientFault: a connection refused once on an
// idempotent read is retried and the query succeeds.
func TestQueryRetriesTransientFault(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, shardrpc.CoordinatorOptions{})
	v, q := probeQuery(t, co)
	p.set("refuse", "/v1/shard/query", 1)
	rs, err := v.RunCtx(t.Context(), core.UDI, q)
	if err != nil {
		t.Fatalf("query after one transient fault: %v", err)
	}
	if len(rs.Ranked) == 0 {
		t.Fatal("query returned no answers")
	}
	if got := p.count("/v1/shard/query"); got != 2 {
		t.Fatalf("host saw %d query requests, want 2 (original + retry)", got)
	}
}

// TestQueryFailsTypedOnDeadHost: a persistently refused shard turns a
// read into a typed shard_unavailable — never a silently partial merge.
func TestQueryFailsTypedOnDeadHost(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, shardrpc.CoordinatorOptions{})
	v, q := probeQuery(t, co)
	p.set("refuse", "/v1/shard/query", -1)
	rs, err := v.RunCtx(t.Context(), core.UDI, q)
	if rs != nil {
		t.Fatal("got a result set alongside a shard failure")
	}
	wantShardUnavailable(t, err)
}

// TestQueryFailsTypedOnTruncatedBody: a response cut off mid-stream is a
// transport failure; after the retry budget it surfaces as
// shard_unavailable, and the half-received part is never merged.
func TestQueryFailsTypedOnTruncatedBody(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, shardrpc.CoordinatorOptions{})
	v, q := probeQuery(t, co)
	p.set("truncate", "/v1/shard/query", -1)
	rs, err := v.RunCtx(t.Context(), core.UDI, q)
	if rs != nil {
		t.Fatal("got a result set from truncated responses")
	}
	wantShardUnavailable(t, err)
}

// TestQueryFailsTypedOnSlowHost: a shard slower than the per-attempt
// deadline degrades to shard_unavailable, not to an untyped timeout —
// the caller's own context was never exceeded.
func TestQueryFailsTypedOnSlowHost(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	// The per-attempt timeout must be generous enough for coordinator
	// setup (which runs through the same client, and slows down under
	// -race) while still far below the injected delay.
	copts := shardrpc.CoordinatorOptions{Client: client.Options{
		Timeout: 750 * time.Millisecond, Retries: -1,
	}}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, copts)
	v, q := probeQuery(t, co)
	p.mu.Lock()
	p.delay = 3 * time.Second
	p.mu.Unlock()
	p.set("delay", "/v1/shard/query", -1)
	_, err := v.RunCtx(t.Context(), core.UDI, q)
	wantShardUnavailable(t, err)
}

// TestCandidatesHonoursRequestDeadline: GET /v1/candidates against a
// hung shard host answers the typed timeout envelope when the request's
// deadline expires — the deadline reaches the shard leg, so the handler
// does not wait out the client's per-attempt timeout and retry budget.
func TestCandidatesHonoursRequestDeadline(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	co, p, _ := startFaultedSystem(t, faultCorpus(t), cfg, shardrpc.CoordinatorOptions{})
	api := httpapi.NewBackendServer(co, obs.NewRegistry(), httpapi.Options{QueryTimeout: 150 * time.Millisecond})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	p.mu.Lock()
	p.delay = 1500 * time.Millisecond
	p.mu.Unlock()
	p.set("delay", "/v1/shard/candidates", -1)
	start := time.Now()
	resp, err := http.Get(srv.URL + "/v1/candidates")
	if err != nil {
		t.Fatalf("GET /v1/candidates: %v", err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != httpapi.CodeTimeout {
		t.Fatalf("got %d %q, want 504 %q", resp.StatusCode, env.Error.Code, httpapi.CodeTimeout)
	}
	if elapsed > time.Second {
		t.Fatalf("hung candidates leg took %v; the request deadline did not reach it", elapsed)
	}
}

// TestFeedbackNeverRetried: feedback whose response is lost after the
// host applied it must surface as shard_unavailable after exactly ONE
// send — a retry could double-apply. The host's epoch confirms the
// single application.
func TestFeedbackNeverRetried(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	co, p, hostURL := startFaultedSystem(t, faultCorpus(t), cfg, shardrpc.CoordinatorOptions{})
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	cands, err := v.Candidates(context.Background(), 1)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	fb := core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
		SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}

	before := hostStatus(t, hostURL).Epoch
	p.set("drop-response", "/v1/shard/feedback", 1)
	wantShardUnavailable(t, co.SubmitFeedback(fb))
	if got := p.count("/v1/shard/feedback"); got != 1 {
		t.Fatalf("host saw %d feedback requests, want exactly 1 (no retry)", got)
	}
	after := hostStatus(t, hostURL).Epoch
	if after != before+1 {
		t.Fatalf("host epoch went %d -> %d, want exactly one application", before, after)
	}
}

// TestStructuralRetryDoesNotDoubleApply: a structural mutation whose
// response is lost IS retried (it is idempotent server-side), and the
// converged networked system still answers bit-identically to the
// single-core oracle that applied the mutation once.
func TestStructuralRetryDoesNotDoubleApply(t *testing.T) {
	corpus := faultCorpus(t)
	cfg := core.Config{Obs: obs.NewRegistry()}
	oracle, err := core.Setup(corpus, cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	co, p, _ := startFaultedSystem(t, corpus, cfg, shardrpc.CoordinatorOptions{})

	src := schema.MustNewSource("fresh01", []string{"name", "phone"},
		[][]string{{"ada", "555-0100"}, {"lin", "555-0101"}})
	// Drop the response of the first structural RPC AddSources issues
	// (a restructure on either path — idempotent).
	p.set("drop-response", "", 1)
	ofast, oerr := oracle.AddSources([]*schema.Source{src})
	cfast, cerr := co.AddSources([]*schema.Source{src})
	if oerr != nil || cerr != nil {
		t.Fatalf("add: oracle err %v, networked err %v", oerr, cerr)
	}
	if ofast != cfast {
		t.Fatalf("add: oracle fast=%v, networked fast=%v", ofast, cfast)
	}
	p.set("ok", "", 0)

	sn := oracle.Snapshot()
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	if got, want := v.NumSources(), len(sn.Corpus.Sources); got != want {
		t.Fatalf("networked serves %d sources, oracle %d (double apply?)", got, want)
	}
	q := mustParse(t, "SELECT "+sn.Target.Attrs[0][0]+" FROM sources")
	ors, oerr := sn.RunCtx(t.Context(), core.UDI, q)
	crs, cerr := v.RunCtx(t.Context(), core.UDI, q)
	if oerr != nil || cerr != nil {
		t.Fatalf("query: oracle err %v, networked err %v", oerr, cerr)
	}
	compareRPCResultSets(t, "after retried add", ors, crs)
}

// TestProtocolMismatchRefused: a host refuses a request stamped with a
// different protocol version with the typed protocol_mismatch envelope,
// and a coordinator refuses to start against a host speaking another
// version.
func TestProtocolMismatchRefused(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	body, _ := json.Marshal(shardrpc.QueryRequest{Proto: shardrpc.Version + 1, Query: "SELECT name FROM t"})
	resp, err := http.Post(srv.URL+"/v1/shard/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != shardrpc.CodeProtocolMismatch {
		t.Fatalf("got %d %q, want 400 %q", resp.StatusCode, env.Error.Code, shardrpc.CodeProtocolMismatch)
	}

	// A fake host speaking a future protocol version is refused at setup.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(shardrpc.StatusResponse{Proto: shardrpc.Version + 1, Ready: true})
	}))
	defer fake.Close()
	if _, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{fake.URL},
		shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()}); err == nil {
		t.Fatal("coordinator accepted a host speaking a different protocol version")
	}
}

// TestNotReadyTyped: a host that never received a push answers reads
// with the typed not_ready envelope.
func TestNotReadyTyped(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	body, _ := json.Marshal(shardrpc.QueryRequest{Proto: shardrpc.Version, Query: "SELECT name FROM t"})
	resp, err := http.Post(srv.URL+"/v1/shard/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != httpapi.CodeNotReady {
		t.Fatalf("got %d %q, want 503 %q", resp.StatusCode, env.Error.Code, httpapi.CodeNotReady)
	}
}
