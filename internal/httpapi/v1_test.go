package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
)

func optionsServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	reg := obs.NewRegistry()
	sys, err := core.Setup(c.Corpus, core.Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(sys, opts)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return api, srv, reg
}

// TestLegacyAliasesRetired checks the pre-/v1 aliases are gone:
// unversioned paths 404 while the /v1 successors keep serving.
func TestLegacyAliasesRetired(t *testing.T) {
	_, srv, _ := optionsServer(t, Options{})
	for _, path := range []string{"/healthz", "/schema", "/candidates", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 (legacy aliases retired)", path, resp.StatusCode)
		}
		resp, err = http.Get(srv.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestQueryDeadline checks an expired QueryTimeout surfaces as 504 with
// the typed "timeout" code and is counted, and that cancellation reached
// the engine (query.canceled) rather than being a transport-level abort.
func TestQueryDeadline(t *testing.T) {
	_, srv, reg := optionsServer(t, Options{QueryTimeout: time.Nanosecond})
	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "SELECT name FROM people"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "timeout" {
		t.Errorf("code = %q, want timeout", out.Error.Code)
	}
	counters := reg.Snapshot().Counters
	if counters["http.timeouts"] != 1 {
		t.Errorf("http.timeouts = %d, want 1", counters["http.timeouts"])
	}
	if counters["query.canceled"] != 1 {
		t.Errorf("query.canceled = %d, want 1", counters["query.canceled"])
	}
}

// TestAdmissionControl checks backpressure: with MaxInFlight slots all
// taken, a query-path request is rejected immediately with 429 +
// Retry-After and the overload counter, and admission recovers once a
// slot frees up. The slot is occupied directly through the semaphore so
// the test is deterministic.
func TestAdmissionControl(t *testing.T) {
	api, srv, reg := optionsServer(t, Options{MaxInFlight: 1, RetryAfter: 2 * time.Second})

	api.sem <- struct{}{} // occupy the only slot
	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "SELECT name FROM people"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Error.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", out.Error.Code)
	}
	if got := reg.Snapshot().Counters["http.overloaded"]; got != 1 {
		t.Errorf("http.overloaded = %d, want 1", got)
	}

	// Non-query routes are not subject to admission control.
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under load = %d, want 200", resp.StatusCode)
	}

	<-api.sem // free the slot
	resp, err = http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "SELECT name FROM people", "top": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status after slot freed = %d, want 200", resp.StatusCode)
	}
}

// TestFeedbackAdvancesEpoch drives the pay-as-you-go loop over HTTP and
// checks the serving epoch moves: schema before, candidate → feedback,
// schema after.
func TestFeedbackAdvancesEpoch(t *testing.T) {
	_, srv, _ := optionsServer(t, Options{})
	epoch := func() uint64 {
		resp, err := http.Get(srv.URL + "/v1/schema")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SchemaResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Epoch
	}
	before := epoch()

	resp, err := http.Get(srv.URL + "/v1/candidates?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var cands struct {
		Candidates []candidateJSON `json:"candidates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cands.Candidates) == 0 {
		t.Skip("no feedback candidates")
	}
	c := cands.Candidates[0]
	body, _ := json.Marshal(feedbackRequest{Source: c.Source, SrcAttr: c.SrcAttr, MedName: c.MedName, Confirmed: true})
	resp, err = http.Post(srv.URL+"/v1/feedback", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	if after := epoch(); after != before+1 {
		t.Errorf("epoch %d -> %d, want one commit", before, after)
	}
}
