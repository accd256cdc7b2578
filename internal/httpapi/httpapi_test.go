package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/schema"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, Options{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["sources"].(float64) != 20 {
		t.Errorf("health = %v", out)
	}
	if out["epoch"].(float64) < 1 {
		t.Errorf("epoch = %v, want >= 1", out["epoch"])
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Schemas) < 2 || len(out.Target) == 0 {
		t.Errorf("schema response = %+v", out)
	}
	if out.Epoch < 1 || out.CreatedAt.IsZero() || out.StalenessSeconds < 0 {
		t.Errorf("epoch/staleness = %d/%v/%f", out.Epoch, out.CreatedAt, out.StalenessSeconds)
	}
	total := 0.0
	for _, s := range out.Schemas {
		total += s.Prob
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("schema probs sum to %f", total)
	}
}

func TestSchemaDurabilityStatus(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Without a durability hook the field is absent entirely.
	plain := httptest.NewServer(NewServer(sys, Options{}).Handler())
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["durability"]; ok {
		t.Error("in-memory server reports durability")
	}

	durable := httptest.NewServer(NewServer(sys, Options{
		Durability: func() DurabilityStatus {
			return DurabilityStatus{CheckpointSeq: 7, LastSeq: 9, WALRecords: 2, WALBytes: 180, Replayed: 3}
		},
	}).Handler())
	t.Cleanup(durable.Close)
	resp, err = http.Get(durable.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	d := out.Durability
	if d == nil || d.CheckpointSeq != 7 || d.LastSeq != 9 || d.WALRecords != 2 || d.WALBytes != 180 || d.Replayed != 3 {
		t.Errorf("durability = %+v", d)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/query", queryRequest{
		Query: "SELECT name, phone FROM People", Top: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	answers := out["answers"].([]any)
	if len(answers) != 5 {
		t.Fatalf("answers = %v", answers)
	}
	first := answers[0].(map[string]any)
	if p := first["prob"].(float64); p <= 0 || p > 1 {
		t.Errorf("prob = %f", p)
	}
	if out["distinct"].(float64) < 5 {
		t.Errorf("distinct = %v", out["distinct"])
	}
}

func TestQueryByTuple(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/query", queryRequest{
		Query: "SELECT job FROM People", Semantics: "by-tuple", Top: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if len(out["answers"].([]any)) == 0 {
		t.Error("no answers under by-tuple semantics")
	}
	resp, _ = postJSON(t, srv.URL+"/v1/query", queryRequest{
		Query: "SELECT job FROM People", Semantics: "nonsense",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad semantics accepted: %d", resp.StatusCode)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := testServer(t)
	resp, _ := postJSON(t, srv.URL+"/v1/query", queryRequest{Query: "not sql"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query accepted: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/query", queryRequest{Query: "SELECT name FROM t", Approach: "Nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad approach accepted: %d", resp.StatusCode)
	}
	r, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body accepted: %d", r.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	_, out := postJSON(t, srv.URL+"/v1/query", queryRequest{
		Query: "SELECT name FROM People", Top: 1,
	})
	first := out["answers"].([]any)[0].(map[string]any)
	var values []string
	for _, v := range first["values"].([]any) {
		values = append(values, v.(string))
	}
	resp, out := postJSON(t, srv.URL+"/v1/explain", explainRequest{
		Query: "SELECT name FROM People", Values: values,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if len(out["contributions"].([]any)) == 0 {
		t.Error("no contributions for a returned answer")
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	srv := testServer(t)
	// Find a generic source to give feedback about via the schema.
	resp, out := postJSON(t, srv.URL+"/v1/feedback", feedbackRequest{
		Source: "People-000", SrcAttr: "phone", MedName: "phone", Confirmed: true,
	})
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unexpected status %d: %v", resp.StatusCode, out)
	}
	// Unknown source must 404 with the typed code.
	resp, body := postJSON(t, srv.URL+"/v1/feedback", feedbackRequest{
		Source: "nope", SrcAttr: "a", MedName: "name", Confirmed: true,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source accepted: %d", resp.StatusCode)
	}
	if code := body["error"].(map[string]any)["code"]; code != "unknown_source" {
		t.Errorf("code = %v, want unknown_source", code)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /query returned %d", resp.StatusCode)
	}
}

func TestCandidatesEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/candidates?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Candidates []candidateJSON `json:"candidates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	cands := out.Candidates
	if len(cands) == 0 || len(cands) > 5 {
		t.Fatalf("candidates = %v", cands)
	}
	// The returned med_name must be answerable via POST /feedback.
	c := cands[0]
	resp2, body := postJSON(t, srv.URL+"/v1/feedback", feedbackRequest{
		Source: c.Source, SrcAttr: c.SrcAttr, MedName: c.MedName, Confirmed: true,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("feedback on candidate rejected: %d %v", resp2.StatusCode, body)
	}
	// Bad limit must 400.
	resp3, err := http.Get(srv.URL + "/v1/candidates?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit accepted: %d", resp3.StatusCode)
	}
}

// An answer whose one column is the empty string reaches the client as
// "values": [""], not as an empty array.
func TestQueryEmptyStringValue(t *testing.T) {
	var sources []*schema.Source
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		sources = append(sources, schema.MustNewSource(name, []string{"make", "model"},
			[][]string{{"", "x"}}))
	}
	corpus, err := schema.NewCorpus("Car", sources)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Setup(corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, Options{}).Handler())
	t.Cleanup(srv.Close)
	resp, out := postJSON(t, srv.URL+"/v1/query", queryRequest{Query: "SELECT make FROM Car"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	answers := out["answers"].([]any)
	if len(answers) != 1 {
		t.Fatalf("answers = %v", answers)
	}
	values := answers[0].(map[string]any)["values"].([]any)
	if len(values) != 1 || values[0] != "" {
		t.Fatalf(`values = %v, want [""]`, values)
	}
}

// recordingLog is a CommitLog whose Begin fails with beginErr: the
// durability layer refusing every commit.
type recordingLog struct{ beginErr error }

func (l *recordingLog) Begin([]core.Op) (uint64, error) { return 0, l.beginErr }
func (l *recordingLog) Committed(uint64, int)           {}

// TestCommitLogFailureIsServerError: a valid mutation the commit log
// refuses answers 500 internal, not 400 — the request was fine, the
// server failed it — and the cause reaches the server log, not the
// client. A request the core rejects keeps its own code.
func TestCommitLogFailureIsServerError(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 8
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The request log line is written after the response, concurrently
	// with the test reading what was logged.
	var (
		mu     sync.Mutex
		logged []string
	)
	api := NewServer(sys, Options{})
	api.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/candidates?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var cands struct {
		Candidates []candidateJSON `json:"candidates"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cands)
	resp.Body.Close()
	if err != nil || len(cands.Candidates) == 0 {
		t.Fatalf("no feedback candidate (%v)", err)
	}
	fb := cands.Candidates[0]
	sys.SetCommitLog(&recordingLog{beginErr: errors.New("wal: fsync: disk on fire")})
	epoch := sys.Epoch()

	requests := map[string]func() *http.Response{
		"feedback": func() *http.Response {
			resp, _ := postJSON(t, srv.URL+"/v1/feedback", feedbackRequest{
				Source: fb.Source, SrcAttr: fb.SrcAttr, MedName: fb.MedName, Confirmed: true})
			return resp
		},
		"add": func() *http.Response {
			resp, _ := postJSON(t, srv.URL+"/v1/sources", addSourcesRequest{Sources: []core.SourceData{
				{Name: "grown-01", Attrs: []string{"name", "phone"}, Rows: [][]string{{"Zed Quo", "777-9999"}}}}})
			return resp
		},
		"remove": func() *http.Response {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sources/"+c.Corpus.Sources[0].Name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { resp.Body.Close() })
			return resp
		},
	}
	for name, do := range requests {
		resp := do()
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if resp.Body != nil {
			_ = json.NewDecoder(resp.Body).Decode(&env)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", name, resp.StatusCode)
		}
		if strings.Contains(env.Error.Message, "disk on fire") {
			t.Errorf("%s: the cause leaked to the client: %q", name, env.Error.Message)
		}
		mu.Lock()
		if !strings.Contains(strings.Join(logged, "\n"), "internal error: "+resp.Request.Method+" "+resp.Request.URL.Path+": core: commit log: wal: fsync: disk on fire") {
			t.Errorf("%s: the cause is not in the server log: %q", name, logged)
		}
		mu.Unlock()
	}
	if sys.Epoch() != epoch {
		t.Errorf("a refused commit published: epoch %d -> %d", epoch, sys.Epoch())
	}
	resp, body := postJSON(t, srv.URL+"/v1/feedback", feedbackRequest{Source: "nope", SrcAttr: "a", MedName: "name", Confirmed: true})
	if resp.StatusCode != http.StatusNotFound || body["error"].(map[string]any)["code"] != CodeUnknownSource {
		t.Errorf("unknown source behind a failing log: %d %v, want 404 %s", resp.StatusCode, body, CodeUnknownSource)
	}
}
