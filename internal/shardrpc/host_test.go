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
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/shardrpc"
	"udi/internal/wal"
)

type errEnvelope struct {
	Error struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

func getEnvelope(t *testing.T, url string) (int, errEnvelope, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var env errEnvelope
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("error body is not the envelope: %v (%q)", err, body)
		}
	}
	return resp.StatusCode, env, resp.Header, body
}

// TestWALEndpointErrorPaths drives every typed failure of GET /v1/wal:
// malformed parameters, a resume point beyond the tail, a resume point
// folded away by checkpoint, and a host with no WAL at all — plus the
// happy path whose frames must CRC-validate.
func TestWALEndpointErrorPaths(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{DataDir: t.TempDir(), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	defer h.Close()

	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{srv.URL},
		shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
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
	for i := 0; i < 2; i++ {
		if err := co.SubmitFeedback(fb); err != nil {
			t.Fatalf("feedback: %v", err)
		}
	}
	committed := h.Store().LastCommittedSeq()
	if committed != 2 {
		t.Fatalf("committed seq %d, want 2", committed)
	}

	// Malformed from / max_bytes.
	for _, bad := range []string{"/v1/wal", "/v1/wal?from=abc", "/v1/wal?from=-1", "/v1/wal?from=0&max_bytes=-2"} {
		status, env, _, _ := getEnvelope(t, srv.URL+bad)
		if status != http.StatusBadRequest || env.Error.Code != httpapi.CodeBadQuery {
			t.Errorf("%s: got %d %q, want 400 %q", bad, status, env.Error.Code, httpapi.CodeBadQuery)
		}
	}

	// From-seq beyond the committed tail.
	status, env, _, _ := getEnvelope(t, srv.URL+"/v1/wal?from=99")
	if status != http.StatusRequestedRangeNotSatisfiable || env.Error.Code != httpapi.CodeWALBeyondTail {
		t.Fatalf("beyond tail: got %d %q, want 416 %q", status, env.Error.Code, httpapi.CodeWALBeyondTail)
	}

	// Happy path: CRC-valid frames with alignment headers.
	status, _, hdr, body := getEnvelope(t, srv.URL+"/v1/wal?from=0")
	if status != http.StatusOK {
		t.Fatalf("tail fetch: status %d", status)
	}
	recs, err := wal.ReadFrames(body)
	if err != nil {
		t.Fatalf("shipped frames do not validate: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("shipped %d records, want 2", len(recs))
	}
	if got := hdr.Get("X-UDI-Committed"); got != strconv.FormatUint(committed, 10) {
		t.Fatalf("X-UDI-Committed = %q, want %d", got, committed)
	}
	if got := hdr.Get("X-UDI-Records"); got != "2" {
		t.Fatalf("X-UDI-Records = %q, want 2", got)
	}

	// A checkpoint folds from=0 away: 410 with the checkpoint sequence.
	if err := h.Store().Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	status, env, _, _ = getEnvelope(t, srv.URL+"/v1/wal?from=0")
	if status != http.StatusGone || env.Error.Code != httpapi.CodeWALTruncated {
		t.Fatalf("truncated: got %d %q, want 410 %q", status, env.Error.Code, httpapi.CodeWALTruncated)
	}
	if env.Error.Details["checkpoint_seq"] != float64(committed) {
		t.Fatalf("truncation details = %v, want checkpoint_seq %d", env.Error.Details, committed)
	}

	// A host with no WAL (in-memory) refuses with not_ready.
	mem, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("in-memory host: %v", err)
	}
	memSrv := httptest.NewServer(mem.Handler())
	defer memSrv.Close()
	status, env, _, _ = getEnvelope(t, memSrv.URL+"/v1/wal?from=0")
	if status != http.StatusServiceUnavailable || env.Error.Code != httpapi.CodeNotReady {
		t.Fatalf("no-WAL host: got %d %q, want 503 %q", status, env.Error.Code, httpapi.CodeNotReady)
	}
}

// TestShardFeedbackBodyIsBounded: /v1/shard/feedback carries one feedback
// item, the same core.Feedback the public /v1/feedback caps, so a body
// over httpapi.MaxRequestBody answers the typed 413 and commits nothing.
func TestShardFeedbackBodyIsBounded(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	addr := startHosts(t, 1, cfg)[0]
	if _, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{addr}, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()}); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	epoch := hostStatus(t, addr).Epoch
	body, _ := json.Marshal(shardrpc.FeedbackRequest{Proto: shardrpc.Version,
		Feedback: core.Feedback{Source: strings.Repeat("x", httpapi.MaxRequestBody), SrcAttr: "phone", MedName: "phone"}})
	resp, err := http.Post(addr+"/v1/shard/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env errEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != httpapi.CodeBodyTooLarge {
		t.Fatalf("oversized feedback: %d %q (%v), want 413 %q", resp.StatusCode, env.Error.Code, err, httpapi.CodeBodyTooLarge)
	}
	if got := hostStatus(t, addr).Epoch; got != epoch {
		t.Errorf("refused feedback moved the epoch %d -> %d", epoch, got)
	}
}

// refusingLog is a CommitLog whose Begin always fails.
type refusingLog struct{ err error }

func (l refusingLog) Begin([]core.Op) (uint64, error) { return 0, l.err }
func (refusingLog) Committed(uint64, int)             {}

// TestFeedbackCommitLogFailureIsInternal: a valid feedback item the
// host's commit log refuses answers 500 internal with the cause kept out
// of the body, and the coordinator surfaces a server error (the shard
// unavailable), not a client error.
func TestFeedbackCommitLogFailureIsInternal(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{srv.URL}, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	v, err := co.View()
	if err != nil {
		t.Fatal(err)
	}
	cands, err := v.Candidates(context.Background(), 1)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	fb := core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
		SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}
	h.Sys().SetCommitLog(refusingLog{errors.New("wal: fsync: disk on fire")})
	epoch := hostStatus(t, srv.URL).Epoch

	body, _ := json.Marshal(shardrpc.FeedbackRequest{Proto: shardrpc.Version, Feedback: fb})
	resp, err := http.Post(srv.URL+"/v1/shard/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env errEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Code != httpapi.CodeInternal {
		t.Fatalf("refused commit: %d %q (%v), want 500 %q", resp.StatusCode, env.Error.Code, err, httpapi.CodeInternal)
	}
	if strings.Contains(env.Error.Message, "disk on fire") {
		t.Errorf("the cause leaked to the client: %q", env.Error.Message)
	}
	var se *httpapi.StatusError
	if err := co.SubmitFeedback(fb); !errors.As(err, &se) || se.Status < 500 {
		t.Errorf("coordinator feedback: err = %v, want a 5xx status error", err)
	}
	if got := hostStatus(t, srv.URL).Epoch; got != epoch {
		t.Errorf("a refused commit moved the epoch %d -> %d", epoch, got)
	}
}
