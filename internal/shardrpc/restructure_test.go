package shardrpc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// recordedHost is one shard host whose restructure bodies are kept.
type recordedHost struct {
	host   *shardrpc.Host
	url    string
	mu     sync.Mutex
	bodies [][]byte
}

func (rh *recordedHost) take() [][]byte {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	out := rh.bodies
	rh.bodies = nil
	return out
}

// startRecordedHosts brings up n empty shard hosts that record every
// restructure body they receive.
func startRecordedHosts(t *testing.T, n int, cfg core.Config) []*recordedHost {
	t.Helper()
	hosts := make([]*recordedHost, n)
	for i := range hosts {
		h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		rh := &recordedHost{host: h}
		inner := h.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard/restructure" {
				body, _ := io.ReadAll(r.Body)
				rh.mu.Lock()
				rh.bodies = append(rh.bodies, body)
				rh.mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { h.Close() })
		rh.url, hosts[i] = srv.URL, rh
	}
	return hosts
}

func urls(hosts []*recordedHost) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.url
	}
	return out
}

// TestRebuildShipsNoHeldRows: a source's rows cross to its shard once,
// in the change that adds it. A mutation that changes the clustering
// rebuilds every shard's p-mappings, yet every restructure body it sends
// carries no rows except the owner's newcomer — and the rebuilt system
// answers like a single core.
func TestRebuildShipsNoHeldRows(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	corpus := faultCorpus(t)
	hosts := startRecordedHosts(t, 4, cfg)
	co, err := shardrpc.NewCoordinator(corpus, cfg, urls(hosts), shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	setupRows := 0
	for _, h := range hosts {
		for _, body := range h.take() {
			var req shardrpc.RestructureRequest
			must(t, "decode setup body", json.Unmarshal(body, &req))
			setupRows += len(req.Add)
		}
	}
	if setupRows != len(corpus.Sources) {
		t.Fatalf("setup shipped %d sources' rows, want each of %d once", setupRows, len(corpus.Sources))
	}

	// Two novel attributes in a corpus of seven make new frequent
	// attributes, so the clustering changes.
	novel := schema.MustNewSource("novel", []string{"zeta", "omega"}, [][]string{{"z1", "o1"}, {"z2", "o2"}})
	grown, err := schema.NewCorpus(corpus.Domain, append(corpus.Sources[:len(corpus.Sources):len(corpus.Sources)], novel))
	must(t, "grown corpus", err)
	oracle, err := core.Setup(corpus, cfg)
	must(t, "oracle", err)
	fast, err := co.AddSources([]*schema.Source{novel})
	must(t, "add", err)
	if ofast, err := oracle.AddSources([]*schema.Source{novel}); err != nil || fast || ofast {
		t.Fatalf("the novel source took the fast path (networked %v, oracle %v, %v); the test needs a rebuild", fast, ofast, err)
	}

	owner, pushed := shard.ShardOf(novel.Name, len(hosts)), 0
	for i, h := range hosts {
		bodies := h.take()
		if len(bodies) != 1 {
			t.Fatalf("host %d received %d restructures for one rebuild", i, len(bodies))
		}
		pushed += len(bodies[0])
		var req shardrpc.RestructureRequest
		must(t, "decode rebuild body", json.Unmarshal(bodies[0], &req))
		want := 0
		if i == owner {
			want = 1
		}
		if len(req.Add) != want || (want == 1 && req.Add[0].Name != novel.Name) {
			t.Fatalf("host %d: the rebuild shipped rows of %d sources, want %d (the owner's newcomer only)", i, len(req.Add), want)
		}
		if len(req.Maps) != len(req.Sources) {
			t.Fatalf("host %d: the rebuild carried p-mappings of %d of its %d sources", i, len(req.Maps), len(req.Sources))
		}
	}
	t.Logf("rebuild pushed %d bytes over %d hosts", pushed, len(hosts))

	v, err := co.View()
	must(t, "view", err)
	for _, attr := range grown.FrequentAttrs(0.10) {
		q := sqlparse.MustParse("SELECT " + attr + " FROM t")
		want, err := oracle.Snapshot().RunCtx(t.Context(), core.UDI, q)
		must(t, "oracle query", err)
		got, err := v.RunCtx(t.Context(), core.UDI, q)
		must(t, "networked query", err)
		compareRPCResultSets(t, "after the rebuild: "+q.String(), want, got)
	}
}

// TestCoordinatorRestartConverges: a second coordinator set up over the
// same live hosts with a different corpus — whose sources reuse some
// names with other rows — leaves every host holding exactly its slice of
// the new corpus, and the networked answers `==` a single core over it.
func TestCoordinatorRestartConverges(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	hosts := startRecordedHosts(t, 4, cfg)
	first := faultCorpus(t)
	if _, err := shardrpc.NewCoordinator(first, cfg, urls(hosts), shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()}); err != nil {
		t.Fatalf("first coordinator: %v", err)
	}
	spec := datagen.People(41)
	spec.NumSources = 9
	second := datagen.MustGenerate(spec).Corpus
	reused := 0
	for _, src := range second.Sources {
		for _, old := range first.Sources {
			if old.Name == src.Name && !reflect.DeepEqual(old.Rows, src.Rows) {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("the second corpus reuses no name with other rows; the test cannot see a stale source")
	}
	co, err := shardrpc.NewCoordinator(second, cfg, urls(hosts), shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("second coordinator: %v", err)
	}

	for i, h := range hosts {
		var want []*schema.Source
		for _, src := range second.Sources {
			if shard.ShardOf(src.Name, len(hosts)) == i {
				want = append(want, src)
			}
		}
		got := h.host.Sys().Snapshot().Corpus.Sources
		if len(got) != len(want) {
			t.Fatalf("host %d holds %d sources, its slice has %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k].Name != want[k].Name || !reflect.DeepEqual(got[k].Attrs, want[k].Attrs) || !reflect.DeepEqual(got[k].Rows, want[k].Rows) {
				t.Fatalf("host %d source %d: holds %q, its slice has %q with other rows or attributes", i, k, got[k].Name, want[k].Name)
			}
		}
	}

	oracle, err := core.Setup(second, cfg)
	must(t, "oracle", err)
	sh, err := shard.New(second, cfg, shard.Options{Shards: len(hosts)})
	must(t, "in-process control", err)
	var qs []*sqlparse.Query
	for _, attr := range second.FrequentAttrs(0.10) {
		qs = append(qs, sqlparse.MustParse("SELECT "+attr+" FROM t"))
	}
	compareNetworked(t, "after the restart", oracle, sh, co, qs)
}

// fillReader yields n copies of one byte, generated as read.
type fillReader struct {
	b byte
	n int64
}

func (f *fillReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), f.n))
	for i := range p[:k] {
		p[i] = f.b
	}
	f.n -= int64(k)
	return k, nil
}

// TestRestructureBodyIsBounded: a Car setup (817 sources) pushes each of
// four hosts a restructure body well inside httpapi.MaxRowsBody, and a
// body past the bound is refused with a typed 413 before it is decoded.
func TestRestructureBodyIsBounded(t *testing.T) {
	hosts := startRecordedHosts(t, 4, core.Config{Obs: obs.NewRegistry()})
	corpus := datagen.MustGenerate(datagen.Car(102)).Corpus
	if _, err := shardrpc.NewCoordinator(corpus, core.Config{Obs: obs.NewRegistry()}, urls(hosts),
		shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	largest := 0
	for i, h := range hosts {
		bodies := h.take()
		if len(bodies) == 0 {
			t.Fatalf("host %d received no restructure", i)
		}
		for _, b := range bodies {
			largest = max(largest, len(b))
		}
	}
	if largest > httpapi.MaxRowsBody/4 {
		t.Fatalf("a Car restructure body takes %d bytes, over a quarter of the %d-byte bound", largest, httpapi.MaxRowsBody)
	}
	t.Logf("largest Car restructure body over 4 hosts: %d bytes (bound %d)", largest, httpapi.MaxRowsBody)

	body := io.MultiReader(strings.NewReader(fmt.Sprintf(`{"proto":%d,"sources":[{"name":"big","attrs":["a"],"rows":[["`, shardrpc.Version)),
		&fillReader{'x', httpapi.MaxRowsBody}, strings.NewReader(`"]]}]}`))
	rec := httptest.NewRecorder()
	hosts[0].host.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/restructure", body))
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != httpapi.CodeBodyTooLarge {
		t.Fatalf("oversized restructure: %d %q, want 413 %q", rec.Code, env.Error.Code, httpapi.CodeBodyTooLarge)
	}
}
