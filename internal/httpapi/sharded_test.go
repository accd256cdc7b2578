package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/persist"
	"udi/internal/shard"
	"udi/internal/sqlparse"
)

// shardedPair serves the same corpus twice: once through the single-core
// server, once scatter-gathered across 4 shards.
func shardedPair(t *testing.T) (single, sharded *httptest.Server) {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 20
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(c.Corpus, core.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	single = httptest.NewServer(NewServer(sys, Options{}).Handler())
	sharded = httptest.NewServer(NewShardedServer(sh, Options{}).Handler())
	t.Cleanup(single.Close)
	t.Cleanup(sharded.Close)
	return single, sharded
}

// TestShardedSchemaReportsEpochVector pins the sharded additions to
// /v1/schema: a shard count and a per-shard epoch vector summing to the
// scalar epoch, with the schema payload unchanged from single-core.
func TestShardedSchemaReportsEpochVector(t *testing.T) {
	single, sharded := shardedPair(t)
	var sgl, shd SchemaResponse
	for url, out := range map[string]*SchemaResponse{
		single.URL + "/v1/schema":  &sgl,
		sharded.URL + "/v1/schema": &shd,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	if sgl.Shards != 0 || sgl.Epochs != nil {
		t.Fatalf("single-core schema leaked shard fields: shards=%d epochs=%v", sgl.Shards, sgl.Epochs)
	}
	if shd.Shards != 4 || len(shd.Epochs) != 4 {
		t.Fatalf("sharded schema: shards=%d epochs=%v, want 4 and a 4-vector", shd.Shards, shd.Epochs)
	}
	var sum uint64
	for _, e := range shd.Epochs {
		sum += e
	}
	if shd.Epoch != sum {
		t.Fatalf("sharded epoch %d != vector sum %d", shd.Epoch, sum)
	}
	if !reflect.DeepEqual(sgl.Schemas, shd.Schemas) || !reflect.DeepEqual(sgl.Target, shd.Target) {
		t.Fatal("sharded schema payload differs from single-core")
	}
}

// TestShardedQueryMatchesSingleCore runs the same query through both
// servers and requires identical answers — the HTTP-level slice of the
// differential contract.
func TestShardedQueryMatchesSingleCore(t *testing.T) {
	single, sharded := shardedPair(t)
	req := map[string]any{"query": "SELECT name FROM people", "top": 25}
	_, sglOut := postJSON(t, single.URL+"/v1/query", req)
	_, shdOut := postJSON(t, sharded.URL+"/v1/query", req)
	for _, k := range []string{"answers", "distinct", "occurrences"} {
		if !reflect.DeepEqual(sglOut[k], shdOut[k]) {
			t.Fatalf("%s differs:\nsingle:  %v\nsharded: %v", k, sglOut[k], shdOut[k])
		}
	}
}

// TestShardedFeedbackRoutes submits feedback through the sharded server
// and checks it is acknowledged and bumps only the owning shard.
func TestShardedFeedbackRoutes(t *testing.T) {
	_, sharded := shardedPair(t)
	var before SchemaResponse
	resp, err := http.Get(sharded.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Any candidate names a valid (source, attr, med_name) triple.
	capResp, err := http.Get(sharded.URL + "/v1/candidates?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var cands struct {
		Candidates []candidateJSON `json:"candidates"`
	}
	if err := json.NewDecoder(capResp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	capResp.Body.Close()
	if len(cands.Candidates) == 0 {
		t.Skip("no feedback candidates on this corpus")
	}
	c := cands.Candidates[0]
	fresp, out := postJSON(t, sharded.URL+"/v1/feedback", map[string]any{
		"source": c.Source, "attr": c.SrcAttr, "med_name": c.MedName, "confirmed": true,
	})
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d: %v", fresp.StatusCode, out)
	}

	var after SchemaResponse
	resp2, err := http.Get(sharded.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	owner := shard.ShardOf(c.Source, 4)
	bumped := 0
	for i := range after.Epochs {
		if after.Epochs[i] != before.Epochs[i] {
			bumped++
			if i != owner {
				t.Fatalf("feedback for %q bumped shard %d, owner is %d (%v -> %v)",
					c.Source, i, owner, before.Epochs, after.Epochs)
			}
		}
	}
	if bumped != 1 {
		t.Fatalf("feedback bumped %d shards, want exactly the owner (%v -> %v)",
			bumped, before.Epochs, after.Epochs)
	}
}

// countingShard is an in-process shard whose read legs count the queries
// they run.
type countingShard struct {
	shard.Shard
	runs *atomic.Int64
}

func (c countingShard) Pin() shard.Leg { return countingLeg{Leg: c.Shard.Pin(), runs: c.runs} }

type countingLeg struct {
	shard.Leg
	runs *atomic.Int64
}

func (l countingLeg) Run(ctx context.Context, a core.Approach, q *sqlparse.Query, d answer.Detail) (*answer.ResultSet, error) {
	l.runs.Add(1)
	return l.Leg.Run(ctx, a, q, d)
}

// TestUnknownApproachNeverFansOut: an approach the server does not serve —
// an unknown name, or one of the §7.3 baselines — is refused with 400
// bad_query before any shard runs the query.
func TestUnknownApproachNeverFansOut(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 20
	var runs atomic.Int64
	shards := make([]shard.Shard, 4)
	for i := range shards {
		shards[i] = countingShard{Shard: shard.NewLocal(core.Config{}, "", persist.StoreOptions{}), runs: &runs}
	}
	sh, err := shard.NewOver(datagen.MustGenerate(spec).Corpus, core.Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewShardedServer(sh, Options{}).Handler())
	defer srv.Close()
	for _, approach := range []string{"Bogus", "Source"} {
		resp, out := postJSON(t, srv.URL+"/v1/query", queryRequest{Query: "SELECT name FROM people", Approach: approach})
		envelope, _ := out["error"].(map[string]any)
		if resp.StatusCode != http.StatusBadRequest || envelope["code"] != CodeBadQuery {
			t.Errorf("approach %q: %d %v, want 400 %s", approach, resp.StatusCode, envelope, CodeBadQuery)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("refused approaches ran %d shard legs, want 0", n)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/query", queryRequest{Query: "SELECT name FROM people", Approach: string(core.Consolidated)})
	if resp.StatusCode != http.StatusOK || runs.Load() != 4 {
		t.Fatalf("served approach: status %d after %d legs, want 200 after 4", resp.StatusCode, runs.Load())
	}
}
