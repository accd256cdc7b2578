package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
)

// metricsServer builds a server over its own registry so counter
// assertions are not polluted by other tests sharing obs.Default.
func metricsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	reg := obs.NewRegistry()
	sys, err := core.Setup(c.Corpus, core.Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, Options{}).Handler())
	t.Cleanup(srv.Close)
	return srv, reg
}

// TestErrorPaths drives every endpoint through its failure modes and
// checks both the status code and that the body is a JSON error object.
func TestErrorPaths(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantJSON   bool // expect {"error": ...} body
	}{
		{"query via GET", http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed, false},
		{"feedback via GET", http.MethodGet, "/v1/feedback", "", http.StatusMethodNotAllowed, false},
		{"schema via POST", http.MethodPost, "/v1/schema", "{}", http.StatusMethodNotAllowed, false},
		{"metrics via POST", http.MethodPost, "/v1/metrics", "{}", http.StatusMethodNotAllowed, false},
		{"malformed query JSON", http.MethodPost, "/v1/query", "{not json", http.StatusBadRequest, true},
		{"malformed explain JSON", http.MethodPost, "/v1/explain", "[1,2", http.StatusBadRequest, true},
		{"malformed feedback JSON", http.MethodPost, "/v1/feedback", `{"source": 7}`, http.StatusBadRequest, true},
		{"unparsable SQL", http.MethodPost, "/v1/query", `{"query": "DROP TABLE people"}`, http.StatusBadRequest, true},
		{"empty SQL", http.MethodPost, "/v1/query", `{"query": ""}`, http.StatusBadRequest, true},
		{"bad semantics", http.MethodPost, "/v1/query", `{"query": "SELECT name FROM people", "semantics": "by-magic"}`, http.StatusBadRequest, true},
		{"bad candidates limit", http.MethodGet, "/v1/candidates?limit=-2", "", http.StatusBadRequest, true},
		{"unknown route", http.MethodGet, "/v1/nope", "", http.StatusNotFound, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if c.wantJSON {
				var out errorResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("body is not JSON: %v", err)
				}
				if out.Error.Code == "" || out.Error.Message == "" {
					t.Errorf("error envelope incomplete: %+v", out.Error)
				}
			}
		})
	}
}

// TestRequestBodiesAreBounded: every front-door route whose body is SQL
// text, one answer tuple or one feedback item refuses a body over
// MaxRequestBody with a typed 413.
func TestRequestBodiesAreBounded(t *testing.T) {
	srv := testServer(t)
	body := `{"query": "SELECT name FROM people WHERE name = '` + strings.Repeat("x", 2<<20) + `'"}`
	for _, path := range []string{"/v1/query", "/v1/explain", "/v1/feedback"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out errorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || out.Error.Code != CodeBodyTooLarge {
			t.Errorf("%s: got %d %q, want 413 %q", path, resp.StatusCode, out.Error.Code, CodeBodyTooLarge)
		}
	}
}

// TestMetricsEndpoint checks that a served query shows up in /metrics:
// request counters, the latency histogram, and the query-path metrics
// recorded by the answer engine.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := metricsServer(t)
	if _, out := postJSON(t, srv.URL+"/v1/query", map[string]any{"query": "SELECT name FROM people"}); out["answers"] == nil {
		t.Fatal("query returned no answers")
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics body is not a snapshot: %v", err)
	}
	if snap.Counters["http.requests"] < 1 {
		t.Errorf("http.requests = %d, want >= 1", snap.Counters["http.requests"])
	}
	if snap.Counters["http.requests./query"] != 1 {
		t.Errorf("http.requests./query = %d, want 1", snap.Counters["http.requests./query"])
	}
	if snap.Counters["setup.count"] != 1 {
		t.Errorf("setup.count = %d, want 1", snap.Counters["setup.count"])
	}
	if h, ok := snap.Histograms["http.seconds"]; !ok || h.Count < 1 {
		t.Errorf("http.seconds histogram missing or empty: %+v", h)
	}
	if h, ok := snap.Histograms["query.seconds"]; !ok || h.Count != 1 {
		t.Errorf("query.seconds histogram missing or wrong count: %+v", h)
	}
}

// TestMetricsErrorCounter checks that 4xx responses increment http.errors.
func TestMetricsErrorCounter(t *testing.T) {
	srv, reg := metricsServer(t)
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters["http.errors"]; got != 1 {
		t.Errorf("http.errors = %d, want 1", got)
	}
}

// TestDebugVars checks the expvar-compatible dump: valid JSON overall,
// standard expvars present, and the server's registry under "udi".
func TestDebugVars(t *testing.T) {
	srv, _ := metricsServer(t)
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Error("missing standard expvar memstats")
	}
	var udi obs.Snapshot
	if err := json.Unmarshal(doc["udi"], &udi); err != nil {
		t.Fatalf("udi key is not a snapshot: %v", err)
	}
	if udi.Counters["setup.count"] != 1 {
		t.Errorf("udi.counters[setup.count] = %d, want 1", udi.Counters["setup.count"])
	}
}

// TestPprofIndex checks the profiling index is wired up.
func TestPprofIndex(t *testing.T) {
	srv, reg := metricsServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
	if got := reg.Snapshot().Counters["http.requests./debug/pprof"]; got != 1 {
		t.Errorf("http.requests./debug/pprof = %d, want 1", got)
	}
}

// TestRequestLogging checks the Logf hook sees one line per request.
func TestRequestLogging(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(sys, Options{})
	var lines []string
	api.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lines) != 1 {
		t.Fatalf("%d log lines, want 1: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "GET /v1/healthz 200") {
		t.Errorf("log line = %q, want method/path/status", lines[0])
	}
}
