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
)

func postSources(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sources", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func sourcesBody(names ...string) string {
	var b strings.Builder
	b.WriteString(`{"sources":[`)
	for i, n := range names {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name":%q,"attrs":["name","phone"],"rows":[["ann","555"],["bob","556"]]}`, n)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestAddSourcesEndpoint exercises POST /v1/sources against both
// backends: a batch lands as one committed epoch, bad bodies and bad
// batches are rejected with 400 before anything is applied.
func TestAddSourcesEndpoint(t *testing.T) {
	single, sharded := shardedPair(t)
	for tag, srv := range map[string]*httptest.Server{"single": single, "sharded": sharded} {
		t.Run(tag, func(t *testing.T) {
			epoch := func() (uint64, int) {
				resp, err := http.Get(srv.URL + "/v1/schema")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out SchemaResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				return out.Epoch, out.Shards
			}
			before, shards := epoch()
			// One commit bumps each shard's counter once; the scalar epoch
			// is their sum (1 for the unsharded backend).
			perCommit := uint64(1)
			if shards > 0 {
				perCommit = uint64(shards)
			}

			resp, out := postSources(t, srv.URL, sourcesBody("web-a", "web-b", "web-c"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch add status = %d: %v", resp.StatusCode, out)
			}
			if got := out["sources"]; got != float64(3) {
				t.Errorf("sources = %v, want 3", got)
			}
			if _, ok := out["fast"].(bool); !ok {
				t.Errorf("response missing fast flag: %v", out)
			}
			if after, _ := epoch(); after != before+perCommit {
				t.Errorf("epoch %d -> %d, want one commit for the whole batch", before, after)
			}

			for name, body := range map[string]string{
				"malformed":    `{"sources":`,
				"empty":        `{"sources":[]}`,
				"bad source":   `{"sources":[{"name":"","attrs":["a"],"rows":[]}]}`,
				"duplicate":    sourcesBody("web-a"),
				"dup in batch": sourcesBody("web-x", "web-x"),
				"ragged rows":  `{"sources":[{"name":"r","attrs":["a","b"],"rows":[["1"]]}]}`,
			} {
				resp, out := postSources(t, srv.URL, body)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status = %d, want 400 (%v)", name, resp.StatusCode, out)
				}
			}
			if after, _ := epoch(); after != before+perCommit {
				t.Errorf("rejected batches advanced the epoch")
			}
		})
	}
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

// TestAddSourcesBodyIsBounded: a /v1/sources body past MaxRowsBody is
// refused with a typed 413 and nothing is applied.
func TestAddSourcesBodyIsBounded(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 5
	sys, err := core.Setup(datagen.MustGenerate(spec).Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(sys, Options{}).Handler()
	body := io.MultiReader(strings.NewReader(`{"sources":[{"name":"big","attrs":["name"],"rows":[["`),
		&fillReader{'x', MaxRowsBody}, strings.NewReader(`"]]}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sources", body))
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != CodeBodyTooLarge {
		t.Fatalf("oversized /v1/sources: %d %q, want 413 %q", rec.Code, env.Error.Code, CodeBodyTooLarge)
	}
	if n := len(sys.Snapshot().Corpus.Sources); n != spec.NumSources {
		t.Fatalf("%d sources after a refused add, want %d", n, spec.NumSources)
	}
}
