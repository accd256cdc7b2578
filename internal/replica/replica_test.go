package replica_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/httpapi/conformance"
	"udi/internal/obs"
	"udi/internal/replica"
	"udi/internal/schema"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// primary is a real shard host (durable or in-memory) with a
// single-shard coordinator in front of it to push state and route
// mutations — the exact topology `udiserver -role shard` plus
// `-role coordinator` wires up.
type primary struct {
	host   *shardrpc.Host
	url    string
	co     *shardrpc.Coordinator
	cfg    core.Config
	corpus *schema.Corpus
}

func startPrimary(t *testing.T, durable bool) *primary {
	t.Helper()
	cfg := core.Config{Obs: obs.NewRegistry()}
	opts := shardrpc.HostOptions{Obs: obs.NewRegistry()}
	if durable {
		opts.DataDir = t.TempDir()
	}
	h, err := shardrpc.NewHost(cfg, opts)
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	spec := datagen.People(57)
	spec.NumSources = 6
	c := datagen.MustGenerate(spec)
	co, err := shardrpc.NewCoordinator(c.Corpus, cfg, []string{srv.URL},
		shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return &primary{host: h, url: srv.URL, co: co, cfg: cfg, corpus: c.Corpus}
}

// feedbackOnce routes one valid feedback item through the coordinator
// (WAL-logging it on a durable host).
func (p *primary) feedbackOnce(t *testing.T) {
	t.Helper()
	v, err := p.co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	cands, err := v.Candidates(context.Background(), 1)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	fb := core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
		SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}
	if err := p.co.SubmitFeedback(fb); err != nil {
		t.Fatalf("feedback: %v", err)
	}
}

// compareToPrimary asserts the replica serves bit-identical answers to
// the primary's own system at its current state.
func compareToPrimary(t *testing.T, tag string, p *primary, f *replica.Follower) {
	t.Helper()
	sn := p.host.Sys().Snapshot()
	v, err := f.Backend().View()
	if err != nil {
		t.Fatalf("%s: replica view: %v", tag, err)
	}
	if got, want := v.NumSources(), len(sn.Corpus.Sources); got != want {
		t.Fatalf("%s: replica serves %d sources, primary %d", tag, got, want)
	}
	q, err := sqlparse.Parse("SELECT " + sn.Target.Attrs[0][0] + " FROM sources")
	if err != nil {
		t.Fatalf("%s: parse: %v", tag, err)
	}
	ctx := context.Background()
	prs, perr := sn.RunCtx(ctx, core.UDI, q)
	rrs, rerr := v.RunCtx(ctx, core.UDI, q)
	if perr != nil || rerr != nil {
		t.Fatalf("%s: primary err %v, replica err %v", tag, perr, rerr)
	}
	if len(prs.Ranked) != len(rrs.Ranked) {
		t.Fatalf("%s: replica ranked %d answers, primary %d", tag, len(rrs.Ranked), len(prs.Ranked))
	}
	for i := range prs.Ranked {
		w, g := prs.Ranked[i], rrs.Ranked[i]
		if strings.Join(w.Values, "\x1f") != strings.Join(g.Values, "\x1f") || w.Prob != g.Prob {
			t.Fatalf("%s: rank %d = %v (%v), primary %v (%v)", tag, i, g.Values, g.Prob, w.Values, w.Prob)
		}
	}
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// TestReplicaFollowsFeedback: bootstrap once, then catch up on WAL-
// shipped feedback with incremental replay — no re-bootstrap — until
// the applied watermark equals the primary's committed watermark.
func TestReplicaFollowsFeedback(t *testing.T) {
	p := startPrimary(t, true)
	reg := obs.NewRegistry()
	f := replica.New(p.url, p.cfg, replica.Options{Obs: reg})
	ctx := context.Background()

	if err := f.Sync(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if !f.Synced() {
		t.Fatal("Synced = false after a successful sync")
	}
	if got := counter(reg, "replica.bootstraps"); got != 1 {
		t.Fatalf("bootstraps = %d after first sync, want 1", got)
	}
	compareToPrimary(t, "after bootstrap", p, f)

	for i := 0; i < 3; i++ {
		p.feedbackOnce(t)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("catch-up sync: %v", err)
	}
	if got := counter(reg, "replica.bootstraps"); got != 1 {
		t.Fatalf("bootstraps = %d after incremental catch-up, want 1 (replay, not re-bootstrap)", got)
	}
	if got := counter(reg, "replica.records_applied"); got < 3 {
		t.Fatalf("records_applied = %d, want >= 3", got)
	}
	committed := p.host.Store().LastCommittedSeq()
	if f.AppliedSeq() != committed {
		t.Fatalf("applied seq %d, primary committed %d", f.AppliedSeq(), committed)
	}
	compareToPrimary(t, "after catch-up", p, f)

	rep := f.Backend().Replication()
	if rep == nil || rep.Primary != p.url || !rep.SyncedOnce {
		t.Fatalf("replication status = %+v", rep)
	}
	if rep.AppliedSeq != rep.PrimaryCommittedSeq {
		t.Fatalf("replication reports applied %d != committed %d after catch-up", rep.AppliedSeq, rep.PrimaryCommittedSeq)
	}
	if want := p.host.Sys().Snapshot().Epoch; rep.PrimaryEpoch != want {
		t.Fatalf("replication reports primary epoch %d, actual %d", rep.PrimaryEpoch, want)
	}
}

// TestReplicaRebootstrapOnStructuralChange: a coordinator-pushed
// structural change (not WAL-logged) bumps the primary's state
// generation, and the follower answers with a full re-bootstrap.
func TestReplicaRebootstrapOnStructuralChange(t *testing.T) {
	p := startPrimary(t, true)
	reg := obs.NewRegistry()
	f := replica.New(p.url, p.cfg, replica.Options{Obs: reg})
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}

	src := schema.MustNewSource("grown01", []string{"name", "phone"},
		[][]string{{"ada", "555-0100"}, {"lin", "555-0101"}})
	if _, err := p.co.AddSources([]*schema.Source{src}); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("sync after structural change: %v", err)
	}
	if got := counter(reg, "replica.bootstraps"); got != 2 {
		t.Fatalf("bootstraps = %d, want 2 (structural change forces re-bootstrap)", got)
	}
	compareToPrimary(t, "after structural change", p, f)
}

// TestReplicaRebootstrapAfterCheckpointTruncation: a checkpoint on the
// primary folds the follower's resume point into the snapshot; the WAL
// fetch answers 410 wal_truncated and the follower re-bootstraps.
func TestReplicaRebootstrapAfterCheckpointTruncation(t *testing.T) {
	p := startPrimary(t, true)
	reg := obs.NewRegistry()
	f := replica.New(p.url, p.cfg, replica.Options{Obs: reg})
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}

	p.feedbackOnce(t)
	p.feedbackOnce(t)
	if err := p.host.Store().Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("sync after checkpoint: %v", err)
	}
	if got := counter(reg, "replica.rebootstraps"); got != 1 {
		t.Fatalf("rebootstraps = %d, want 1 (410 forces re-bootstrap)", got)
	}
	if committed := p.host.Store().LastCommittedSeq(); f.AppliedSeq() != committed {
		t.Fatalf("applied seq %d, primary committed %d", f.AppliedSeq(), committed)
	}
	compareToPrimary(t, "after checkpoint truncation", p, f)
}

// TestReplicaNonDurablePrimary: an in-memory primary has no WAL to
// ship; any epoch movement is followed by a full re-bootstrap.
func TestReplicaNonDurablePrimary(t *testing.T) {
	p := startPrimary(t, false)
	reg := obs.NewRegistry()
	f := replica.New(p.url, p.cfg, replica.Options{Obs: reg})
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	compareToPrimary(t, "after bootstrap", p, f)

	p.feedbackOnce(t)
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("sync after feedback: %v", err)
	}
	if got := counter(reg, "replica.bootstraps"); got != 2 {
		t.Fatalf("bootstraps = %d, want 2 (no WAL; epoch movement re-bootstraps)", got)
	}
	compareToPrimary(t, "after feedback", p, f)
}

// TestReplicaCorruptWALAppliesNothing: a WAL response that fails frame
// validation applies zero records — the follower's watermark and serving
// state are untouched, and the next pass can retry cleanly.
func TestReplicaCorruptWALAppliesNothing(t *testing.T) {
	// Real snapshot bytes from a durable primary give the fake primary a
	// valid bootstrap payload.
	p := startPrimary(t, true)
	p.feedbackOnce(t)
	resp, err := http.Get(p.url + "/v1/shard/state")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	snapshot, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	snapSeq, _ := strconv.ParseUint(resp.Header.Get("X-UDI-Seq"), 10, 64)

	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/shard/status":
			writeJSON(w, shardrpc.StatusResponse{Proto: shardrpc.Version, Ready: true,
				Epoch: 99, StateGen: 1, NumSources: 6, Durable: true, CommittedSeq: snapSeq + 5})
		case "/v1/shard/state":
			w.Header().Set("X-UDI-State-Gen", "1")
			w.Header().Set("X-UDI-Seq", strconv.FormatUint(snapSeq, 10))
			_, _ = w.Write(snapshot)
		case "/v1/wal":
			w.Header().Set("X-UDI-State-Gen", "1")
			w.Header().Set("X-UDI-Committed", strconv.FormatUint(snapSeq+5, 10))
			_, _ = w.Write([]byte("this is not a CRC-framed WAL tail"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer fake.Close()

	reg := obs.NewRegistry()
	f := replica.New(fake.URL, p.cfg, replica.Options{Obs: reg})
	ctx := context.Background()
	err = f.Sync(ctx)
	if err == nil {
		t.Fatal("sync succeeded over a corrupt WAL response")
	}
	if got := counter(reg, "replica.corrupt_fetches"); got != 1 {
		t.Fatalf("corrupt_fetches = %d, want 1", got)
	}
	if f.AppliedSeq() != snapSeq {
		t.Fatalf("applied seq %d moved past the bootstrap's %d despite corrupt frames", f.AppliedSeq(), snapSeq)
	}
	// The bootstrapped state still serves.
	if _, err := f.Backend().View(); err != nil {
		t.Fatalf("view after corrupt fetch: %v", err)
	}
	// A retry applies nothing either — strictly idempotent failure.
	if err := f.Sync(ctx); err == nil {
		t.Fatal("second sync succeeded over a corrupt WAL response")
	}
	if f.AppliedSeq() != snapSeq {
		t.Fatalf("applied seq %d moved on the second corrupt fetch", f.AppliedSeq())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		panic(err)
	}
}

// TestReplicaReadOnlyAndNotReady: before the first sync every read is a
// typed not_ready; mutations are always a typed read_only pointing at
// the primary.
func TestReplicaReadOnlyAndNotReady(t *testing.T) {
	p := startPrimary(t, true)
	f := replica.New(p.url, p.cfg, replica.Options{})
	be := f.Backend()

	_, err := be.View()
	var se *httpapi.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != httpapi.CodeNotReady {
		t.Fatalf("View before sync: %v, want 503 %s", err, httpapi.CodeNotReady)
	}
	if err := be.SubmitFeedback(core.Feedback{Source: "s"}); !errors.As(err, &se) ||
		se.Status != http.StatusForbidden || se.Code != httpapi.CodeReadOnly {
		t.Fatalf("SubmitFeedback: %v, want 403 %s", err, httpapi.CodeReadOnly)
	}
	if _, err := be.AddSources(nil); !errors.As(err, &se) || se.Code != httpapi.CodeReadOnly {
		t.Fatalf("AddSources: %v, want %s", err, httpapi.CodeReadOnly)
	}
	if _, err := be.RemoveSource("s"); !errors.As(err, &se) || se.Code != httpapi.CodeReadOnly {
		t.Fatalf("RemoveSource: %v, want %s", err, httpapi.CodeReadOnly)
	}
}

// TestReplicaConformance runs the Backend contract suite against a
// synced replica — the read-only branch of the same suite every
// writable topology passes.
func TestReplicaConformance(t *testing.T) {
	p := startPrimary(t, true)
	f := replica.New(p.url, p.cfg, replica.Options{})
	if err := f.Sync(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	oracle, err := core.Setup(p.corpus, core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Run(t, f.Backend(), oracle)
}
