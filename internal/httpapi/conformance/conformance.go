// Package conformance checks a httpapi.Backend implementation against
// the documented contract. Every serving topology — single-core,
// in-process sharded, networked coordinator, read replica — runs the
// same suite, so the /v1 surface behaves identically no matter what is
// behind it.
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Run checks be against the Backend contract. Backends advertising a
// Replication status are treated as read-only: mutations must be
// rejected with CodeReadOnly and must not advance the epoch. Writable
// backends must commit monotone epochs, answer queries at every epoch,
// and round-trip an add/remove of a probe source.
//
// The backend must already hold a configured corpus (a view with at
// least one source and a consolidated target); the suite derives its
// probe query and feedback from the backend's own schema, so it is
// corpus-agnostic. oracle is a single-core system over the corpus the
// backend serves: before any mutation, one by-table and one by-tuple
// query through the /v1 handler must answer exactly what its instance
// path computes.
func Run(t *testing.T, be httpapi.Backend, oracle *core.System) {
	t.Helper()
	readOnly := be.Replication() != nil

	v, err := be.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if v.NumSources() <= 0 {
		t.Fatalf("NumSources = %d, want > 0", v.NumSources())
	}
	if v.PMed() == nil || len(v.PMed().Schemas) == 0 {
		t.Fatal("PMed is empty")
	}
	if v.Target() == nil || len(v.Target().Attrs) == 0 {
		t.Fatal("Target is empty")
	}
	if ev := v.EpochVector(); be.Shards() > 0 && len(ev) != be.Shards() {
		t.Fatalf("EpochVector length %d, want Shards() = %d", len(ev), be.Shards())
	}
	if v.CreatedAt().IsZero() {
		t.Error("CreatedAt is zero")
	}
	_ = be.Committing() // must not panic; value depends on timing

	// Query: every backend answers a projection of its own target.
	attr := v.Target().Attrs[0][0]
	q, err := sqlparse.Parse(fmt.Sprintf("SELECT %s FROM sources", attr))
	if err != nil {
		t.Fatalf("parse probe query: %v", err)
	}
	rs, err := v.RunCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if len(rs.Ranked) == 0 {
		t.Error("probe query returned no answers")
	}
	checkAnswers(t, be, oracle, q)

	// Explain must work for a returned answer.
	if len(rs.Ranked) > 0 {
		if _, err := v.ExplainCtx(context.Background(), q, rs.Ranked[0].Values); err != nil {
			t.Errorf("ExplainCtx: %v", err)
		}
	}

	// Candidates: bounded by limit, resolvable against this view's PMed.
	cands, err := v.Candidates(context.Background(), 3)
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cands) > 3 {
		t.Errorf("Candidates(3) returned %d", len(cands))
	}
	pmed := v.PMed()
	for _, c := range cands {
		if c.SchemaIdx < 0 || c.SchemaIdx >= len(pmed.Schemas) {
			t.Fatalf("candidate schema index %d out of range", c.SchemaIdx)
		}
		attrs := pmed.Schemas[c.SchemaIdx].Attrs
		if c.MedIdx < 0 || c.MedIdx >= len(attrs) {
			t.Fatalf("candidate mediated index %d out of range", c.MedIdx)
		}
	}

	if readOnly {
		runReadOnly(t, be, v)
		return
	}
	runWritable(t, be, v, cands)
}

// runReadOnly checks the replica contract: every mutation is rejected
// with CodeReadOnly and the epoch does not move.
func runReadOnly(t *testing.T, be httpapi.Backend, v httpapi.View) {
	t.Helper()
	before := v.Epoch()
	fb := core.Feedback{Source: "any", SrcAttr: "any", MedName: "any", Confirmed: true}
	if err := be.SubmitFeedback(fb); !isCode(err, httpapi.CodeReadOnly) {
		t.Errorf("SubmitFeedback on read-only backend: err = %v, want code %s", err, httpapi.CodeReadOnly)
	}
	src, err := schema.NewSource("conformance_probe", []string{"a"}, [][]string{{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.AddSources([]*schema.Source{src}); !isCode(err, httpapi.CodeReadOnly) {
		t.Errorf("AddSources on read-only backend: err = %v, want code %s", err, httpapi.CodeReadOnly)
	}
	if _, err := be.RemoveSource("conformance_probe"); !isCode(err, httpapi.CodeReadOnly) {
		t.Errorf("RemoveSource on read-only backend: err = %v, want code %s", err, httpapi.CodeReadOnly)
	}
	v2, err := be.View()
	if err != nil {
		t.Fatalf("View after rejected mutations: %v", err)
	}
	if v2.Epoch() < before {
		t.Errorf("epoch moved backwards: %d -> %d", before, v2.Epoch())
	}
	rep := be.Replication()
	if rep.Primary == "" {
		t.Error("Replication.Primary is empty")
	}
	if !rep.SyncedOnce {
		t.Error("Replication.SyncedOnce = false on a serving replica")
	}
}

// runWritable checks the primary contract: feedback and add/remove
// commit strictly larger epochs and unknown names fail typed.
func runWritable(t *testing.T, be httpapi.Backend, v httpapi.View, cands []feedback.Candidate) {
	t.Helper()
	before := v.Epoch()

	// Feedback on a real candidate commits a strictly larger epoch.
	if len(cands) > 0 {
		c := cands[0]
		med := v.PMed().Schemas[c.SchemaIdx].Attrs[c.MedIdx][0]
		err := be.SubmitFeedback(core.Feedback{
			Source: c.Source, SrcAttr: c.SrcAttr, MedName: med, Confirmed: true,
		})
		if err != nil {
			t.Fatalf("SubmitFeedback(%s.%s -> %s): %v", c.Source, c.SrcAttr, med, err)
		}
		v2, err := be.View()
		if err != nil {
			t.Fatalf("View after feedback: %v", err)
		}
		if v2.Epoch() <= before {
			t.Errorf("epoch after feedback = %d, want > %d", v2.Epoch(), before)
		}
		before = v2.Epoch()
	}

	// Unknown-source feedback fails typed, without advancing the epoch.
	err := be.SubmitFeedback(core.Feedback{
		Source: "no_such_source_conformance", SrcAttr: "x", MedName: "y", Confirmed: true,
	})
	if err == nil {
		t.Error("feedback for unknown source succeeded")
	} else if !errors.Is(err, core.ErrUnknownSource) && !isCode(err, httpapi.CodeUnknownSource) {
		t.Errorf("unknown-source feedback error = %v, want ErrUnknownSource or code %s", err, httpapi.CodeUnknownSource)
	}

	// Add/remove round-trips: the corpus grows by one committed epoch,
	// then shrinks back.
	attrs := make([]string, 0, 2)
	for _, cluster := range v.Target().Attrs {
		attrs = append(attrs, cluster[0])
		if len(attrs) == 2 {
			break
		}
	}
	rows := [][]string{make([]string, len(attrs)), make([]string, len(attrs))}
	for i := range rows {
		for j := range attrs {
			rows[i][j] = fmt.Sprintf("probe%d_%d", i, j)
		}
	}
	src, err := schema.NewSource("conformance_probe", attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	sources := v.NumSources()
	if _, err := be.AddSources([]*schema.Source{src}); err != nil {
		t.Fatalf("AddSources: %v", err)
	}
	v3, err := be.View()
	if err != nil {
		t.Fatalf("View after add: %v", err)
	}
	if v3.NumSources() != sources+1 {
		t.Errorf("NumSources after add = %d, want %d", v3.NumSources(), sources+1)
	}
	if v3.Epoch() <= before {
		t.Errorf("epoch after add = %d, want > %d", v3.Epoch(), before)
	}
	if _, err := be.RemoveSource("conformance_probe"); err != nil {
		t.Fatalf("RemoveSource: %v", err)
	}
	v4, err := be.View()
	if err != nil {
		t.Fatalf("View after remove: %v", err)
	}
	if v4.NumSources() != sources {
		t.Errorf("NumSources after remove = %d, want %d", v4.NumSources(), sources)
	}
	if v4.Epoch() <= v3.Epoch() {
		t.Errorf("epoch after remove = %d, want > %d", v4.Epoch(), v3.Epoch())
	}
	// Removing it again is a typed unknown-source failure.
	if _, err := be.RemoveSource("conformance_probe"); err == nil {
		t.Error("second RemoveSource succeeded")
	} else if !errors.Is(err, core.ErrUnknownSource) && !isCode(err, httpapi.CodeUnknownSource) {
		t.Errorf("second RemoveSource error = %v, want ErrUnknownSource or code %s", err, httpapi.CodeUnknownSource)
	}
}

// isCode reports whether err is (or wraps) a StatusError with the code.
func isCode(err error, code string) bool {
	var se *httpapi.StatusError
	return errors.As(err, &se) && se.Code == code
}

// checkAnswers posts q to the backend's /v1/query handler under both
// semantics, every answer asked for, and requires the response to equal
// the oracle's instance path: the same answers in the same order with
// the same probability bits, every distinct tuple counted, and every
// instance counted as an occurrence.
func checkAnswers(t *testing.T, be httpapi.Backend, oracle *core.System, q *sqlparse.Query) {
	t.Helper()
	want, err := oracle.Snapshot().RunInstancesCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if len(want.Instances) == 0 {
		t.Fatalf("oracle: probe query %q lists no instances", q)
	}
	h := httpapi.NewBackendServer(be, obs.NewRegistry(), httpapi.Options{}).Handler()
	for sem, answers := range map[string][]answer.Answer{
		"by-table": want.TopK(-1),
		"by-tuple": want.ByTupleRankingTopK(-1),
	} {
		body, _ := json.Marshal(map[string]any{"query": q.String(), "semantics": sem, "top": -1})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s query: status %d: %s", sem, rec.Code, rec.Body)
		}
		var got struct {
			Answers []struct {
				Values []string `json:"values"`
				Prob   float64  `json:"prob"`
			} `json:"answers"`
			Distinct    int `json:"distinct"`
			Occurrences int `json:"occurrences"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s query: %v", sem, err)
		}
		if got.Distinct != len(want.Ranked) || got.Occurrences != len(want.Instances) {
			t.Errorf("%s: distinct %d, occurrences %d; the single core has %d and %d",
				sem, got.Distinct, got.Occurrences, len(want.Ranked), len(want.Instances))
		}
		if len(got.Answers) != len(answers) {
			t.Fatalf("%s: %d answers, the single core has %d", sem, len(got.Answers), len(answers))
		}
		for i, a := range answers {
			g := got.Answers[i]
			if !slices.Equal(g.Values, a.Values) || math.Float64bits(g.Prob) != math.Float64bits(a.Prob) {
				t.Fatalf("%s: answer %d is %q %v, the single core's %q %v", sem, i, g.Values, g.Prob, a.Values, a.Prob)
			}
		}
	}
}
