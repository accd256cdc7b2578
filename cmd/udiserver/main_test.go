package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"udi/cmd/internal/boot"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestDurableRestartAllDomains is the acceptance gate for -data-dir: for
// every evaluation domain, a server that took feedback and a new source,
// then stopped without a final checkpoint, must recover by WAL replay and
// answer the domain's full golden query suite identically (1e-12).
func TestDurableRestartAllDomains(t *testing.T) {
	for _, d := range datagen.AllDomains() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			dir := t.TempDir()
			sys, store, err := openSystem(d.Name, "", "", 8, dir, 0, core.Config{})
			if err != nil {
				t.Fatal(err)
			}

			// One real feedback item plus a source arrival.
			fed := false
			for _, src := range sys.Corpus.Sources {
				for l, pm := range sys.Maps[src.Name] {
					if len(pm.Groups) > 0 && len(pm.Groups[0].Corrs) > 0 {
						c := pm.Groups[0].Corrs[0]
						if err := sys.SubmitFeedback(core.Feedback{Source: src.Name, SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: true}); err != nil {
							t.Fatal(err)
						}
						fed = true
						break
					}
				}
				if fed {
					break
				}
			}
			if !fed {
				t.Fatal("no correspondence to confirm")
			}
			extra := datagen.MustGenerate(d).Corpus.Sources[8]
			if _, err := sys.AddSources([]*schema.Source{extra}); err != nil {
				t.Fatal(err)
			}

			type ans struct {
				key  string
				prob float64
			}
			record := func(s *core.System) [][]ans {
				var all [][]ans
				for _, qs := range d.Queries {
					res, err := s.QueryParsed(sqlparse.MustParse(qs))
					if err != nil {
						t.Fatalf("%q: %v", qs, err)
					}
					var out []ans
					for _, a := range res.Ranked {
						out = append(out, ans{strings.Join(a.Values, "\x1f"), a.Prob})
					}
					all = append(all, out)
				}
				return all
			}
			want := record(sys)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			sys2, store2, err := openSystem(d.Name, "", "", 8, dir, 0, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			if got := store2.Status().Replayed; got != 2 {
				t.Errorf("replayed %d mutations, want 2", got)
			}
			got := record(sys2)
			for qi := range want {
				if len(want[qi]) != len(got[qi]) {
					t.Fatalf("%q: %d vs %d answers", d.Queries[qi], len(want[qi]), len(got[qi]))
				}
				for ai := range want[qi] {
					w, g := want[qi][ai], got[qi][ai]
					if w.key != g.key || math.Abs(w.prob-g.prob) > 1e-12 {
						t.Errorf("%q answer %d: %v/%.15g vs %v/%.15g",
							d.Queries[qi], ai, w.key, w.prob, g.key, g.prob)
					}
				}
			}
		})
	}
}

// TestServeObservability drives the full server stack end to end: build a
// system, serve it, run a query, then check the observability endpoints
// report live counters for it. Every response is read to EOF: the server
// counts and logs a request after its handler returns, before it ends the
// body, so EOF orders each request's bookkeeping before the next check.
func TestServeObservability(t *testing.T) {
	sys, err := boot.System("People", "", "", 12, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewServer(sys, httpapi.Options{})
	var logged atomic.Int64
	api.Logf = func(format string, args ...any) { logged.Add(1) }
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	do := func(method, path, body string) (int, []byte) {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, raw
	}

	if status, _ := do(http.MethodPost, "/v1/query", `{"query": "SELECT name FROM people"}`); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}

	_, raw := do(http.MethodGet, "/v1/metrics", "")
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.Counters["http.requests./query"] < 1 {
		t.Errorf("http.requests./query = %d, want >= 1", snap.Counters["http.requests./query"])
	}
	if snap.Counters["query.count"] < 1 {
		t.Errorf("query.count = %d, want >= 1", snap.Counters["query.count"])
	}

	_, raw = do(http.MethodGet, "/debug/vars", "")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["udi"]; !ok {
		t.Error("/debug/vars is missing the udi key")
	}

	if status, _ := do(http.MethodGet, "/debug/pprof/", ""); status != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", status)
	}

	if n := logged.Load(); n < 4 {
		t.Errorf("%d log lines, want >= 4", n)
	}
}
