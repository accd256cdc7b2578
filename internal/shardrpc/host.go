package shardrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/shard"
	"udi/internal/sqlparse"
)

// CodeProtocolMismatch is the envelope code a host answers when a
// request carries a different protocol version.
const CodeProtocolMismatch = "protocol_mismatch"

// HostOptions configures a shard host.
type HostOptions struct {
	// DataDir, when set, makes the shard durable: the pushed state is
	// checkpointed there, feedback is logged, and the host serves /v1/wal
	// to read replicas. Empty means in-memory.
	DataDir string
	// Store configures the persist layer (checkpoint cadence, fsync).
	Store persist.StoreOptions
	// Obs receives shard-host metrics; nil uses obs.Default.
	Obs *obs.Registry
}

// Host serves one shard over the shard RPC protocol. It is an HTTP codec
// over a shard.Local — the same implementation of the shard verbs, their
// idempotence and the store lifecycle the in-process coordinator drives —
// and owns only what the wire adds: request decoding, the error envelope
// and the state generation counter. It starts empty (every read answers
// CodeNotReady) until a coordinator's first restructure bootstraps it —
// or, in durable mode, until it warm-starts from its own data directory.
//
// Restructures are NOT logged — their replay semantics are
// coordinator-global. Durability for them is a forced checkpoint after
// apply; visibility for WAL followers is the state generation counter,
// which tells a replica that replay alone cannot reproduce the change
// and it must re-bootstrap.
type Host struct {
	cfg   core.Config
	reg   *obs.Registry
	local *shard.Local

	// mu serializes the structural verbs (and Close); feedback and reads
	// do not take it.
	mu       sync.Mutex
	stateGen atomic.Uint64
}

// NewHost builds a shard host. With DataDir set and a snapshot present,
// the previous shard state warm-starts immediately (including WAL-tail
// replay of feedback); otherwise the host waits empty for a coordinator
// push.
func NewHost(cfg core.Config, opts HostOptions) (*Host, error) {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default
	}
	if cfg.Obs == nil {
		cfg.Obs = reg
	}
	h := &Host{cfg: cfg, reg: reg, local: shard.NewLocal(cfg, opts.DataDir, opts.Store)}
	if err := h.local.Open(); err != nil {
		return nil, err
	}
	return h, nil
}

// Sys returns the currently served system (nil before the first push).
func (h *Host) Sys() *core.System { return h.local.Sys() }

// StateGen returns the structural-change counter.
func (h *Host) StateGen() uint64 { return h.stateGen.Load() }

// Store returns the attached persist store (nil when in-memory or
// empty).
func (h *Host) Store() *persist.Store { return h.local.Store() }

// Close releases the WAL file handle, if any.
func (h *Host) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.local.Close()
}

// Handler returns the shard RPC routes. Mount it on the shard server's
// mux; the paths do not collide with the public /v1 serving surface.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	ReadHandlers{
		Sys:      h.local.Sys,
		StateGen: h.stateGen.Load,
		Status: func(st *StatusResponse) {
			if store := h.local.Store(); store != nil {
				st.Durable = true
				st.CommittedSeq = store.LastCommittedSeq()
			}
		},
		Obs: h.reg,
	}.Mount(mux)
	mux.HandleFunc("POST /v1/shard/feedback", h.handleFeedback)
	mux.HandleFunc("POST /v1/shard/restructure", h.handleRestructure)
	mux.HandleFunc("GET /v1/shard/state", h.handleState)
	mux.HandleFunc("GET /v1/wal", h.handleWAL)
	return mux
}

// decode unmarshals a JSON body bounded at limit bytes —
// httpapi.MaxRequestBody for the read requests and feedback, which carry
// SQL text or one feedback item, httpapi.MaxRowsBody for a restructure —
// and enforces the protocol version carried in it. Returns false after
// writing the error response.
func decode(w http.ResponseWriter, r *http.Request, dst any, proto *int, limit int64) bool {
	if !httpapi.DecodeJSON(w, r, dst, limit) {
		return false
	}
	if *proto != Version {
		httpapi.WriteError(w, http.StatusBadRequest, CodeProtocolMismatch,
			fmt.Sprintf("protocol version %d, this shard speaks %d", *proto, Version), nil)
		return false
	}
	return true
}

// ready passes sys through, or answers CodeNotReady when there is none.
func ready(w http.ResponseWriter, sys *core.System) *core.System {
	if sys == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeNotReady,
			"shard has no state yet (awaiting a coordinator push or a first replica sync)", nil)
	}
	return sys
}

func (h *Host) ready(w http.ResponseWriter) *core.System { return ready(w, h.local.Sys()) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ReadHandlers is the read-only half of the shard RPC surface — status,
// query, explain, candidates — over whatever system Sys currently
// returns. Every read-set member serves it: a Host beside its mutation
// handlers, a replica.Follower over its replayed state. Reads are
// lock-free: each request captures one epoch snapshot.
type ReadHandlers struct {
	// Sys returns the served system, nil until state arrives.
	Sys func() *core.System
	// StateGen returns the structural generation the served state belongs
	// to (the primary's counter; on a replica, the generation it
	// bootstrapped under).
	StateGen func() uint64
	// Status fills the member-specific status fields: durability on a
	// primary, the replication position on a replica.
	Status func(*StatusResponse)
	// Obs counts served queries and, when enabled, records what each
	// partial-result frame cost to encode and how large it was.
	Obs *obs.Registry
}

// Mount registers the read routes (and the /healthz alias of status).
func (rh ReadHandlers) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shard/status", rh.handleStatus)
	mux.HandleFunc("GET /healthz", rh.handleStatus)
	mux.HandleFunc("POST /v1/shard/query", rh.handleQuery)
	mux.HandleFunc("POST /v1/shard/explain", rh.handleExplain)
	mux.HandleFunc("POST /v1/shard/candidates", rh.handleCandidates)
}

func (rh ReadHandlers) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := StatusResponse{Proto: Version, StateGen: rh.StateGen()}
	if sys := rh.Sys(); sys != nil {
		sn := sys.Snapshot()
		st.Ready = true
		st.Epoch = sn.Epoch
		st.NumSources = len(sn.Corpus.Sources)
	}
	rh.Status(&st)
	writeJSON(w, http.StatusOK, st)
}

func (rh ReadHandlers) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decode(w, r, &req, &req.Proto, httpapi.MaxRequestBody) {
		return
	}
	approach, err := core.ParseApproach(req.Approach)
	if err != nil {
		badRequest(w, err)
		return
	}
	sys := ready(w, rh.Sys())
	if sys == nil {
		return
	}
	q, err := sqlparse.Parse(req.Query)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	d := answer.CountOnly
	if req.Instances {
		d = answer.WithInstances
	}
	sn := sys.Snapshot()
	rs, err := sn.ScanCtx(r.Context(), approach, q, d)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	rh.Obs.Add("shardrpc.host.queries", 1)
	t0 := time.Now()
	enc := partEncoders.Get().(*partEncoder)
	defer enc.release()
	frame := enc.encode(sn.Epoch, rs)
	if rh.Obs.Enabled() {
		rh.Obs.Observe("shardrpc.host.encode_seconds", time.Since(t0).Seconds())
		rh.Obs.Observe("shardrpc.host.response_bytes", float64(len(frame)))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

func (rh ReadHandlers) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decode(w, r, &req, &req.Proto, httpapi.MaxRequestBody) {
		return
	}
	sys := ready(w, rh.Sys())
	if sys == nil {
		return
	}
	q, err := sqlparse.Parse(req.Query)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	sn := sys.Snapshot()
	contribs, err := sn.ExplainCtx(r.Context(), q, req.Values)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Epoch: sn.Epoch, Contributions: contribs})
}

func (rh ReadHandlers) handleCandidates(w http.ResponseWriter, r *http.Request) {
	var req CandidatesRequest
	if !decode(w, r, &req, &req.Proto, httpapi.MaxRequestBody) {
		return
	}
	sys := ready(w, rh.Sys())
	if sys == nil {
		return
	}
	sn := sys.Snapshot()
	cands := feedback.NewSession(sys, nil).CandidatesIn(sn, req.Limit)
	writeJSON(w, http.StatusOK, CandidatesResponse{Epoch: sn.Epoch, Candidates: EncodeCandidates(cands)})
}

func (h *Host) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !decode(w, r, &req, &req.Proto, httpapi.MaxRequestBody) || h.ready(w) == nil {
		return
	}
	if err := h.local.Feedback(req.Feedback); err != nil {
		switch {
		case errors.Is(err, core.ErrCommitLog):
			log.Printf("shardrpc: feedback: %v", err)
			httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, "internal error", nil)
		case errors.Is(err, core.ErrUnknownSource):
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeUnknownSource, err.Error(), nil)
		default:
			badRequest(w, err)
		}
		return
	}
	h.reg.Add("shardrpc.host.feedback", 1)
	writeJSON(w, http.StatusOK, FeedbackResponse{Epoch: h.local.Sys().Snapshot().Epoch})
}

func badRequest(w http.ResponseWriter, err error) {
	httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
}

// handleRestructure runs the one structural verb, the one mutation a
// stateless host accepts. It checkpoints after the verb (a restructure
// is never logged, so durability is a forced checkpoint — or, for a
// shard left empty, no store files at all), advances the state
// generation and acknowledges. A body the decoders refuse, or a change
// the shard refuses (a listed name neither held nor added, a mediation
// the held p-mappings were not built for), answers 400 with nothing
// changed. Retrying is safe: the verb is idempotent (see shard.Shard).
func (h *Host) handleRestructure(w http.ResponseWriter, r *http.Request) {
	var req RestructureRequest
	if !decode(w, r, &req, &req.Proto, httpapi.MaxRowsBody) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, err := DecodeChange(req)
	if err == nil {
		err = h.local.Restructure(ch)
	}
	if err != nil {
		badRequest(w, err)
		return
	}
	if err := h.local.Checkpoint(); err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, fmt.Sprintf("checkpoint: %v", err), nil)
		return
	}
	gen := h.stateGen.Add(1)
	h.reg.Add("shardrpc.host.restructures", 1)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: h.local.Sys().Snapshot().Epoch, StateGen: gen})
}

// handleState streams the bootstrap snapshot a replica loads before
// tailing the WAL. Headers carry the covered sequence and the state
// generation so the follower can align its replay start.
func (h *Host) handleState(w http.ResponseWriter, r *http.Request) {
	sys := h.ready(w)
	if sys == nil {
		return
	}
	sn := sys.Snapshot()
	if len(sn.Corpus.Sources) == 0 {
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeNotReady,
			"empty shard has no bootstrap state", nil)
		return
	}
	var buf bytes.Buffer
	var seq uint64
	var err error
	if st := h.local.Store(); st != nil {
		seq, err = st.SaveSnapshotAt(&buf)
	} else {
		err = persist.Save(&buf, sys)
	}
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal,
			"snapshot failed", nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-UDI-Proto", strconv.Itoa(Version))
	w.Header().Set("X-UDI-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("X-UDI-State-Gen", strconv.FormatUint(h.stateGen.Load(), 10))
	w.Header().Set("X-UDI-Epoch", strconv.FormatUint(sn.Epoch, 10))
	w.Header().Set("X-UDI-Durable", strconv.FormatBool(h.local.Store() != nil))
	h.reg.Add("shardrpc.host.state_bootstraps", 1)
	_, _ = w.Write(buf.Bytes())
}

// handleWAL serves the committed WAL tail from the requested sequence as
// raw CRC frames — the exact on-disk layout, so the follower validates
// checksums before applying anything. Typed failures: 410/wal_truncated
// when a checkpoint folded the range away (re-bootstrap), 416/
// wal_beyond_tail when the follower is ahead of the primary.
func (h *Host) handleWAL(w http.ResponseWriter, r *http.Request) {
	st := h.local.Store()
	if st == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeNotReady,
			"no WAL on this host (in-memory or empty shard)", nil)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery,
			"from must be a non-negative integer sequence", nil)
		return
	}
	var maxBytes int64
	if v := r.URL.Query().Get("max_bytes"); v != "" {
		maxBytes, err = strconv.ParseInt(v, 10, 64)
		if err != nil || maxBytes < 0 {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery,
				"max_bytes must be a non-negative integer", nil)
			return
		}
	}
	frames, tail, err := st.TailSince(from, maxBytes)
	switch {
	case err == nil:
	case errors.Is(err, persist.ErrTruncated):
		httpapi.WriteError(w, http.StatusGone, httpapi.CodeWALTruncated, err.Error(),
			map[string]any{"checkpoint_seq": tail.CheckpointSeq})
		return
	case errors.Is(err, persist.ErrBeyondTail):
		httpapi.WriteError(w, http.StatusRequestedRangeNotSatisfiable, httpapi.CodeWALBeyondTail, err.Error(), nil)
		return
	default:
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, "wal read failed", nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-UDI-Proto", strconv.Itoa(Version))
	w.Header().Set("X-UDI-From", strconv.FormatUint(tail.From, 10))
	w.Header().Set("X-UDI-Committed", strconv.FormatUint(tail.Committed, 10))
	w.Header().Set("X-UDI-Checkpoint-Seq", strconv.FormatUint(tail.CheckpointSeq, 10))
	w.Header().Set("X-UDI-Records", strconv.Itoa(tail.Records))
	w.Header().Set("X-UDI-State-Gen", strconv.FormatUint(h.stateGen.Load(), 10))
	if sys := h.local.Sys(); sys != nil {
		w.Header().Set("X-UDI-Epoch", strconv.FormatUint(sys.Snapshot().Epoch, 10))
	}
	h.reg.Add("shardrpc.host.wal_fetches", 1)
	h.reg.Add("shardrpc.host.wal_records_shipped", int64(tail.Records))
	_, _ = w.Write(frames)
}
