// Package httpapi exposes a configured integration system over HTTP: query
// answering (with by-table or by-tuple ranking), mediated-schema
// inspection, answer provenance, and the pay-as-you-go feedback endpoint.
// It turns the library into the service a dataspace deployment would
// actually run: set up once (or restore a snapshot), then serve.
//
// The API is versioned: every endpoint lives under /v1 (the original
// unversioned paths are retired and answer 404). Errors use one envelope
// everywhere:
//
//	{"error": {"code": "bad_query", "message": "...", "details": {...}}}
//
// with codes bad_query, body_too_large, unknown_source, timeout, canceled,
// overloaded, and internal.
//
// Each request serves one epoch: handlers capture the system's current
// snapshot with an atomic load and never touch mutable state, so queries
// need no lock and feedback (which goes through the system's single-writer
// commit path) never blocks them. Admission control and per-request
// deadlines bound the read path: when Options.MaxInFlight queries are
// already running the server answers 429 + Retry-After instead of
// queueing, and when Options.QueryTimeout elapses the scan loops stop and
// the client gets 504.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Error codes returned in the envelope's "code" field. Exported so the
// shard RPC layer, replicas, and the typed Go client speak the same
// vocabulary — the envelope is byte-identical across every topology.
const (
	CodeBadQuery      = "bad_query"
	CodeUnknownSource = "unknown_source"
	CodeTimeout       = "timeout"
	CodeCanceled      = "canceled"
	CodeOverloaded    = "overloaded"
	CodeInternal      = "internal"
	// CodeShardUnavailable (503): the coordinator could not reach every
	// shard it needed; partial merges are never served silently.
	CodeShardUnavailable = "shard_unavailable"
	// CodeReadOnly (403): a mutation was sent to a read replica.
	CodeReadOnly = "read_only"
	// CodeNotReady (503): the backend has no serving state yet (a shard
	// host awaiting its coordinator push, a replica before bootstrap).
	CodeNotReady = "not_ready"
	// CodeWALTruncated (410): the requested WAL tail was folded into a
	// checkpoint; the follower must re-bootstrap from a snapshot.
	CodeWALTruncated = "wal_truncated"
	// CodeWALBeyondTail (416): the requested WAL tail starts past the
	// primary's last sequence — a desynchronized follower, not lag.
	CodeWALBeyondTail = "wal_beyond_tail"
	// CodeBodyTooLarge (413): a request body over its bound,
	// MaxRequestBody or MaxRowsBody.
	CodeBodyTooLarge = "body_too_large"
)

// MaxRequestBody bounds every JSON body that carries SQL text, one answer
// tuple or one feedback item — never bulk rows: /v1/query, /v1/explain
// and /v1/feedback here, and the shard RPC's read requests and feedback.
const MaxRequestBody = 1 << 20

// MaxRowsBody bounds the JSON bodies that carry rows: /v1/sources here,
// and the shard RPC's restructure, which pushes a shard its sources'
// rows and p-mappings. A Car setup's restructure bodies over four hosts
// take at most 0.86 MB each.
const MaxRowsBody = 32 << 20

// statusClientClosedRequest is the de-facto status for "the client went
// away before we finished" (nginx's 499); Go has no name for it.
const statusClientClosedRequest = 499

// StatusError is an error that already knows its HTTP rendering. The
// networked backends (shardrpc, replica) return it from Backend methods
// so every topology serves the identical envelope: handlers check for it
// first and write Status/Code/Message verbatim instead of guessing a
// mapping. It also round-trips through the typed client: a coordinator
// stub decoding a shard's envelope rebuilds the same StatusError, so a
// proxied error reaches the end client byte-identical.
type StatusError struct {
	// Status is the HTTP status to answer with.
	Status int
	// Code is the envelope error code (one of the Code* constants).
	Code string
	// Message is the envelope message.
	Message string
	// Details carries optional structured context (e.g. which shards
	// were unreachable).
	Details map[string]any
	// RetryAfterSec, when positive, sets a Retry-After header.
	RetryAfterSec int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message)
}

// WriteError writes the standard envelope — exported so sibling HTTP
// surfaces (the shard RPC host, the WAL endpoint) answer byte-identically
// to the public API.
func WriteError(w http.ResponseWriter, status int, code, message string, details map[string]any) {
	writeError(w, status, code, message, details)
}

// WriteStatusError renders err: a *StatusError verbatim (including
// Retry-After), anything else as 500/internal with no leaked message.
func WriteStatusError(w http.ResponseWriter, err error) {
	var se *StatusError
	if errors.As(err, &se) {
		if se.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfterSec))
		}
		writeError(w, se.Status, se.Code, se.Message, se.Details)
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, "internal error", nil)
}

// Options configures a Server. The zero value serves with no answer
// limit, no admission control, and no deadline.
type Options struct {
	// DefaultTop bounds the answers returned by /v1/query when the request
	// does not set "top" itself (0 = unlimited).
	DefaultTop int
	// MaxInFlight caps concurrently running query-path requests (/v1/query,
	// /v1/explain, /v1/candidates). Excess requests are rejected
	// immediately with 429 and a Retry-After header rather than queued —
	// under overload, fast rejection keeps the served requests fast.
	// 0 = unlimited.
	MaxInFlight int
	// QueryTimeout bounds each query-path request; on expiry the scan
	// loops stop and the client receives 504 with code "timeout".
	// 0 = no deadline.
	QueryTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Logf receives one line per request (method, path, status, duration)
	// and one line per internal error. Nil disables logging.
	Logf func(format string, args ...any)
	// Durability, when set, reports the persistence layer's state; it is
	// included in /v1/schema responses. Nil (in-memory serving) omits the
	// field.
	Durability func() DurabilityStatus
}

// DurabilityStatus mirrors the persistence layer's recovery state for
// the API (see persist.Store.Status); httpapi does not import persist,
// so the server wires an adapter through Options.Durability.
type DurabilityStatus struct {
	// CheckpointSeq is the WAL sequence the on-disk snapshot covers;
	// CheckpointAt is when it was written.
	CheckpointSeq uint64    `json:"checkpoint_seq"`
	CheckpointAt  time.Time `json:"checkpoint_at"`
	// LastSeq is the newest write-ahead-logged mutation.
	LastSeq uint64 `json:"last_seq"`
	// WALRecords/WALBytes measure the log tail a restart would replay.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Replayed is how many mutations the last startup recovered.
	Replayed int `json:"replayed"`
}

// Server wraps a system with the HTTP handlers. It holds no lock: reads
// serve an immutable core.Snapshot and writes go through the system's
// commit path.
type Server struct {
	be   Backend
	reg  *obs.Registry
	opts Options

	// sem holds one token per in-flight query-path request; nil when
	// admission control is off.
	sem chan struct{}

	// Logf, when set, receives one line per request (method, path,
	// status, duration). Initialized from Options.Logf.
	Logf func(format string, args ...any)
}

// NewServer wraps a configured system. Request metrics go to the system's
// observability registry (core.Config.Obs).
func NewServer(sys *core.System, opts Options) *Server {
	return NewBackendServer(CoreBackend(sys), sys.Cfg.Obs, opts)
}

// Handler returns the routed HTTP handler. Every endpoint lives under
// /v1. /v1/metrics serves the registry snapshot,
// /debug/vars is expvar-compatible, and /debug/pprof/* exposes the
// standard profiling handlers (debug routes are unversioned on purpose:
// they are operator-facing, not part of the API contract).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
	mux.HandleFunc("POST /v1/query", s.admitted(s.handleQuery))
	mux.HandleFunc("POST /v1/explain", s.admitted(s.handleExplain))
	mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	mux.HandleFunc("POST /v1/sources", s.handleAddSources)
	mux.HandleFunc("DELETE /v1/sources/{name}", s.handleRemoveSource)
	mux.HandleFunc("GET /v1/candidates", s.admitted(s.handleCandidates))
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// admitted wraps a query-path handler with admission control and the
// per-request deadline. Rejection is immediate (no queueing): a server
// past MaxInFlight answers 429 with Retry-After so clients back off
// instead of piling onto a slow server.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				retry := s.opts.RetryAfter
				if retry <= 0 {
					retry = time.Second
				}
				w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
				if s.reg.Enabled() {
					s.reg.Add("http.overloaded", 1)
				}
				writeError(w, http.StatusTooManyRequests, CodeOverloaded,
					fmt.Sprintf("server at capacity (%d requests in flight)", s.opts.MaxInFlight), nil)
				return
			}
		}
		if s.opts.QueryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// routeLabel collapses request paths onto a bounded label set so the
// per-route counters cannot grow without bound on arbitrary URLs. The
// /v1 prefix is stripped, so the labels name endpoints, not versions.
func routeLabel(path string) string {
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	p := strings.TrimPrefix(path, "/v1")
	if strings.HasPrefix(p, "/sources/") {
		return "/sources"
	}
	if strings.HasPrefix(p, "/shard/") {
		return "/shard"
	}
	switch p {
	case "/healthz", "/schema", "/query", "/explain", "/feedback", "/sources", "/candidates", "/metrics", "/wal", "/debug/vars":
		return p
	}
	return "other"
}

// instrument wraps h with request counting, error counting, a latency
// histogram, and optional per-request logging. Metric names:
// http.requests, http.requests.<route>, http.errors, http.seconds.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		elapsed := time.Since(t0)
		if s.reg.Enabled() {
			s.reg.Add("http.requests", 1)
			s.reg.Add("http.requests."+routeLabel(r.URL.Path), 1)
			if sw.status >= 400 {
				s.reg.Add("http.errors", 1)
			}
			s.reg.Observe("http.seconds", elapsed.Seconds())
		}
		if s.Logf != nil {
			s.Logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, elapsed)
		}
	})
}

// --- error envelope ---------------------------------------------------

type errorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message string, details map[string]any) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: message, Details: details}})
}

// writeQueryError maps a query-path error onto the envelope: an error
// that already knows its rendering (*StatusError, from the networked
// backends) is written verbatim, deadline expiry is 504/timeout, client
// disconnect is 499/canceled, an unknown source is 404/unknown_source,
// and everything else is a 400/bad_query (query-path errors are
// user-input-shaped: a query the semantics cannot answer, missing
// consolidated mappings).
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		if s.reg.Enabled() && se.Code == CodeShardUnavailable {
			s.reg.Add("http.shard_unavailable", 1)
		}
		WriteStatusError(w, err)
	case errors.Is(err, context.DeadlineExceeded):
		if s.reg.Enabled() {
			s.reg.Add("http.timeouts", 1)
		}
		writeError(w, http.StatusGatewayTimeout, CodeTimeout, "query deadline exceeded", nil)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, CodeCanceled, "request canceled by client", nil)
	case errors.Is(err, core.ErrUnknownSource):
		writeError(w, http.StatusNotFound, CodeUnknownSource, err.Error(), nil)
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, err.Error(), nil)
	}
}

// writeMutationError maps a write-path error: typed networked errors
// verbatim, unknown source 404, a commit the log refused 500/internal
// (the cause goes to the log, not the client), everything else
// 400/bad_query.
func (s *Server) writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		WriteStatusError(w, err)
	case errors.Is(err, core.ErrCommitLog):
		s.internalError(w, r, err)
	case errors.Is(err, core.ErrUnknownSource):
		writeError(w, http.StatusNotFound, CodeUnknownSource, err.Error(), nil)
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, err.Error(), nil)
	}
}

// viewOrError captures a read view; on failure it writes the typed error
// (a replica before bootstrap, a coordinator with unreachable shards)
// and returns nil.
func (s *Server) viewOrError(w http.ResponseWriter, r *http.Request) View {
	v, err := s.be.View()
	if err != nil {
		s.writeQueryError(w, r, err)
		return nil
	}
	return v
}

// epochNow best-effort reads the current epoch for mutation responses;
// a backend that cannot produce a view right now reports 0.
func (s *Server) epochNow() uint64 {
	if v, err := s.be.View(); err == nil {
		return v.Epoch()
	}
	return 0
}

// internalError answers 500 without leaking the error: the message goes
// to the server log, the client sees only the code.
func (s *Server) internalError(w http.ResponseWriter, r *http.Request, err error) {
	if s.Logf != nil {
		s.Logf("internal error: %s %s: %v", r.Method, r.URL.Path, err)
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, "internal error", nil)
}

// DecodeJSON decodes r's JSON body, bounded at limit bytes, into dst. On
// failure it writes the error response — 413 body_too_large past the
// bound, 400 bad_query otherwise — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(dst)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), nil)
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, fmt.Sprintf("bad request body: %v", err), nil)
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// --- observability endpoints ------------------------------------------

// handleMetrics serves the observability registry as a JSON snapshot:
// {"counters": {...}, "histograms": {name: {count, sum, min, max, mean,
// p50, p95, p99}}}.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// handleVars serves an expvar-compatible JSON document: every published
// expvar (cmdline, memstats, ...) plus the server's registry under the
// "udi" key. It renders expvars itself instead of installing the global
// expvar.Handler so multiple servers can coexist in one process.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if !first {
		fmt.Fprintf(w, ",\n")
	}
	snap, err := json.Marshal(s.reg.Snapshot())
	if err != nil {
		snap = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "udi", snap)
}

// --- serving endpoints ------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	v := s.viewOrError(w, r)
	if v == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"sources": v.NumSources(),
		"epoch":   v.Epoch(),
	})
}

// SchemaResponse is the GET /v1/schema body. Exported so the typed
// client decodes into this very struct and the two sides cannot drift.
type SchemaResponse struct {
	Schemas []SchemaJSON `json:"schemas"`
	Target  [][]string   `json:"consolidated"`
	// Epoch identifies the serving snapshot; it increases with every
	// committed mutation (feedback, source add/remove). A sharded server
	// reports the sum of the per-shard epochs, which is equally monotone.
	Epoch uint64 `json:"epoch"`
	// Epochs is the cross-shard epoch vector (one commit counter per
	// shard) and Shards the partition count; both omitted when the server
	// fronts a single unsharded system.
	Epochs []uint64 `json:"epochs,omitempty"`
	Shards int      `json:"shards,omitempty"`
	// CreatedAt is when this epoch was published; StalenessSeconds is the
	// age of the snapshot at response time.
	CreatedAt        time.Time `json:"created_at"`
	StalenessSeconds float64   `json:"staleness_seconds"`
	// Committing reports an in-progress mutation: answers keep coming
	// from this epoch, but a newer one is being built.
	Committing bool `json:"committing"`
	// Durability is present when the server persists mutations (the
	// udiserver -data-dir mode); omitted for in-memory serving.
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// Replication is present when the server is a WAL-following read
	// replica: which primary it follows, the last applied sequence, and
	// how stale it is; omitted on primaries.
	Replication *ReplicationStatus `json:"replication,omitempty"`
	// Routing is present when the server fails reads over to replica read
	// sets (a coordinator with configured replicas): which member served
	// each shard's last read leg, and the failover/stale-refused counters;
	// omitted otherwise.
	Routing *RoutingStatus `json:"routing,omitempty"`
}

// SchemaJSON is one possible mediated schema with its probability.
type SchemaJSON struct {
	Prob     float64    `json:"prob"`
	Clusters [][]string `json:"clusters"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	v := s.viewOrError(w, r)
	if v == nil {
		return
	}
	resp := SchemaResponse{
		Target:           v.Target().Clusters(),
		Epoch:            v.Epoch(),
		Epochs:           v.EpochVector(),
		Shards:           s.be.Shards(),
		CreatedAt:        v.CreatedAt(),
		StalenessSeconds: time.Since(v.CreatedAt()).Seconds(),
		Committing:       s.be.Committing(),
		Replication:      s.be.Replication(),
		Routing:          s.be.Routing(),
	}
	if s.opts.Durability != nil {
		d := s.opts.Durability()
		resp.Durability = &d
	}
	pmed := v.PMed()
	for i, m := range pmed.Schemas {
		resp.Schemas = append(resp.Schemas, SchemaJSON{Prob: pmed.Probs[i], Clusters: m.Clusters()})
	}
	writeJSON(w, http.StatusOK, resp)
}

type queryRequest struct {
	Query string `json:"query"`
	// Approach selects the answering system; default UDI.
	Approach string `json:"approach,omitempty"`
	// Semantics is "by-table" (default) or "by-tuple".
	Semantics string `json:"semantics,omitempty"`
	// Top bounds the returned answers (0 = the server's DefaultTop;
	// negative = explicitly all).
	Top int `json:"top,omitempty"`
}

type answerJSON struct {
	Values []string `json:"values"`
	Prob   float64  `json:"prob"`
}

type queryResponse struct {
	Answers     []answerJSON `json:"answers"`
	Distinct    int          `json:"distinct"`
	Occurrences int          `json:"occurrences"`
	// Epoch is the snapshot the query ran against.
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !DecodeJSON(w, r, &req, MaxRequestBody) {
		return
	}
	q, err := sqlparse.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadQuery, err.Error(), nil)
		return
	}
	// The request is fully validated before a view is captured, so a bad
	// one never reaches a shard.
	approach, err := core.ParseApproach(req.Approach)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadQuery, err.Error(), nil)
		return
	}
	var ranked []answer.Answer
	switch req.Semantics {
	case "", "by-table", "by-tuple":
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, "semantics must be by-table or by-tuple", nil)
		return
	}
	v := s.viewOrError(w, r)
	if v == nil {
		return
	}
	// Only by-tuple ranking reads the instances; a by-table answer is the
	// ranking plus each source's occurrence count.
	byTuple := req.Semantics == "by-tuple"
	var rs *answer.ResultSet
	if byTuple {
		rs, err = v.RunInstancesCtx(r.Context(), approach, q)
	} else {
		rs, err = v.RunCtx(r.Context(), approach, q)
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	top := req.Top
	if top == 0 {
		top = s.opts.DefaultTop
	}
	if byTuple {
		ranked = rs.ByTupleRankingTopK(top)
	} else {
		ranked = rs.TopK(top)
	}
	// Distinct counts every distinct answer tuple, not just the top-k
	// returned ones (the tuple sets coincide under both semantics).
	resp := queryResponse{Distinct: len(rs.Ranked), Occurrences: rs.Occurrences(), Epoch: v.Epoch()}
	for _, a := range ranked {
		resp.Answers = append(resp.Answers, answerJSON{Values: a.Values, Prob: a.Prob})
	}
	writeJSON(w, http.StatusOK, resp)
}

type explainRequest struct {
	Query  string   `json:"query"`
	Values []string `json:"values"`
}

type contributionJSON struct {
	Source    string         `json:"source"`
	SchemaIdx int            `json:"schema"`
	MedToSrc  map[int]string `json:"mapping"`
	Rows      []int          `json:"rows"`
	Mass      float64        `json:"mass"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !DecodeJSON(w, r, &req, MaxRequestBody) {
		return
	}
	q, err := sqlparse.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadQuery, err.Error(), nil)
		return
	}
	v := s.viewOrError(w, r)
	if v == nil {
		return
	}
	contribs, err := v.ExplainCtx(r.Context(), q, req.Values)
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	out := make([]contributionJSON, 0, len(contribs))
	for _, c := range contribs {
		out = append(out, contributionJSON(c))
	}
	writeJSON(w, http.StatusOK, map[string]any{"contributions": out, "epoch": v.Epoch()})
}

type candidateJSON struct {
	Source      string   `json:"source"`
	SrcAttr     string   `json:"attr"`
	Cluster     []string `json:"cluster"`
	MedName     string   `json:"med_name"` // a member name usable in POST /v1/feedback
	Marginal    float64  `json:"marginal"`
	Uncertainty float64  `json:"uncertainty"`
}

// handleCandidates lists the correspondences the system would most like a
// human to confirm or reject, ranked by expected information gain — the
// question queue of the pay-as-you-go loop. Answer one with POST
// /v1/feedback using the returned med_name.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	limit := 10
	if v := r.URL.Query().Get("limit"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadQuery, "limit must be a positive integer", nil)
			return
		}
	}
	// One view for both the ranking and the cluster lookups, so the
	// candidate indices resolve against the schemas that produced them.
	v := s.viewOrError(w, r)
	if v == nil {
		return
	}
	cands, err := v.Candidates(r.Context(), limit)
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	out := make([]candidateJSON, 0, len(cands))
	pmed := v.PMed()
	for _, c := range cands {
		cluster := pmed.Schemas[c.SchemaIdx].Attrs[c.MedIdx]
		out = append(out, candidateJSON{
			Source:      c.Source,
			SrcAttr:     c.SrcAttr,
			Cluster:     []string(cluster),
			MedName:     cluster[0],
			Marginal:    c.Marginal,
			Uncertainty: c.Uncertainty,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"candidates": out, "epoch": v.Epoch()})
}

type feedbackRequest struct {
	Source    string `json:"source"`
	SrcAttr   string `json:"attr"`
	MedName   string `json:"med_name"`
	Confirmed bool   `json:"confirmed"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !DecodeJSON(w, r, &req, MaxRequestBody) {
		return
	}
	if req.MedName == "" {
		writeError(w, http.StatusBadRequest, CodeBadQuery, "med_name is required", nil)
		return
	}
	err := s.be.SubmitFeedback(core.Feedback{
		Source:    req.Source,
		SrcAttr:   req.SrcAttr,
		MedName:   req.MedName,
		Confirmed: req.Confirmed,
	})
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "applied", "epoch": s.epochNow()})
}

// addSourcesRequest is the POST /v1/sources body: a batch of sources to
// add under one group commit (one fsync, one published epoch).
type addSourcesRequest struct {
	Sources []core.SourceData `json:"sources"`
}

func (s *Server) handleAddSources(w http.ResponseWriter, r *http.Request) {
	var req addSourcesRequest
	if !DecodeJSON(w, r, &req, MaxRowsBody) {
		return
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadQuery, "sources must be non-empty", nil)
		return
	}
	srcs := make([]*schema.Source, len(req.Sources))
	for i, p := range req.Sources {
		src, err := p.Source()
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadQuery,
				fmt.Sprintf("source %d: %v", i, err), nil)
			return
		}
		srcs[i] = src
	}
	fast, err := s.be.AddSources(srcs)
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "added",
		"sources": len(srcs),
		"fast":    fast,
		"epoch":   s.epochNow(),
	})
}

// handleRemoveSource serves DELETE /v1/sources/{name}: drop one source,
// shrinking the corpus under a committed epoch. Unknown names are
// 404/unknown_source; replicas answer 403/read_only.
func (s *Server) handleRemoveSource(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, CodeBadQuery, "source name is required", nil)
		return
	}
	fast, err := s.be.RemoveSource(name)
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "removed",
		"source": name,
		"fast":   fast,
		"epoch":  s.epochNow(),
	})
}
