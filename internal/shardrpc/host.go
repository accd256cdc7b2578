package shardrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// CodeProtocolMismatch is the envelope code a host answers when a
// request carries a different protocol version.
const CodeProtocolMismatch = "protocol_mismatch"

// CodeBodyTooLarge is the envelope code (413) for a read request whose
// body exceeds MaxReadRequest.
const CodeBodyTooLarge = "body_too_large"

// MaxReadRequest bounds the JSON body of a read RPC (query, explain,
// candidates): SQL text or one answer tuple, never bulk data.
const MaxReadRequest = 1 << 20

// HostOptions configures a shard host.
type HostOptions struct {
	// DataDir, when set, makes the shard durable: the pushed state is
	// checkpointed there, feedback is write-ahead-logged, and the host
	// serves /v1/wal to read replicas. Empty means in-memory.
	DataDir string
	// Store configures the persist layer (checkpoint cadence, fsync).
	Store persist.StoreOptions
	// Obs receives shard-host metrics; nil uses obs.Default.
	Obs *obs.Registry
}

// Host serves one shard's core.System over the shard RPC protocol. It
// starts empty (every read answers CodeNotReady) until a coordinator
// pushes state via /v1/shard/replace — or, in durable mode, until it
// warm-starts from its own data directory.
//
// Structural mutations (adopt, drop, mediation, replace) commit with a
// nil Op on the core — they are NOT write-ahead-logged, because their
// replay semantics are coordinator-global. Durability for them is a
// forced checkpoint after apply; visibility for WAL followers is the
// state generation counter, which tells a replica that replay alone
// cannot reproduce the change and it must re-bootstrap.
type Host struct {
	cfg  core.Config
	opts HostOptions
	reg  *obs.Registry

	// mu serializes mutations (structural ops and store swaps). Reads
	// are lock-free via the atomic pointers.
	mu       sync.Mutex
	sys      atomic.Pointer[core.System]
	store    atomic.Pointer[persist.Store]
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
	h := &Host{cfg: cfg, opts: opts, reg: reg}
	if opts.DataDir != "" && persist.HasSnapshot(opts.DataDir) {
		sys, st, err := persist.OpenStore(opts.DataDir, cfg, opts.Store, func() (*core.System, error) {
			return nil, fmt.Errorf("shardrpc: snapshot disappeared during open")
		})
		if err != nil {
			return nil, err
		}
		h.sys.Store(sys)
		h.store.Store(st)
	}
	return h, nil
}

// Sys returns the currently served system (nil before the first push).
func (h *Host) Sys() *core.System { return h.sys.Load() }

// StateGen returns the structural-change counter.
func (h *Host) StateGen() uint64 { return h.stateGen.Load() }

// Store returns the attached persist store (nil when in-memory or
// empty).
func (h *Host) Store() *persist.Store { return h.store.Load() }

// Close releases the WAL file handle, if any.
func (h *Host) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.store.Load(); st != nil {
		return st.Close()
	}
	return nil
}

// Handler returns the shard RPC routes. Mount it on the shard server's
// mux; the paths do not collide with the public /v1 serving surface.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	ReadHandlers{
		Sys:      h.sys.Load,
		StateGen: h.stateGen.Load,
		Status: func(st *StatusResponse) {
			if store := h.store.Load(); store != nil {
				st.Durable = true
				st.CommittedSeq = store.LastCommittedSeq()
			}
		},
		Obs: h.reg,
	}.Mount(mux)
	mux.HandleFunc("POST /v1/shard/feedback", h.handleFeedback)
	mux.HandleFunc("POST /v1/shard/adopt", h.handleAdopt)
	mux.HandleFunc("POST /v1/shard/drop", h.handleDrop)
	mux.HandleFunc("POST /v1/shard/mediation", h.handleMediation)
	mux.HandleFunc("POST /v1/shard/replace", h.handleReplace)
	mux.HandleFunc("GET /v1/shard/state", h.handleState)
	mux.HandleFunc("GET /v1/wal", h.handleWAL)
	return mux
}

// decode unmarshals a JSON body and enforces the protocol version
// carried in it. Returns false after writing the error response.
func decode(w http.ResponseWriter, r *http.Request, dst any, proto *int) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpapi.WriteError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), nil)
			return false
		}
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery,
			fmt.Sprintf("bad request body: %v", err), nil)
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

func (h *Host) ready(w http.ResponseWriter) *core.System { return ready(w, h.sys.Load()) }

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

// decode is the package decode over a body bounded by MaxReadRequest.
func (rh ReadHandlers) decode(w http.ResponseWriter, r *http.Request, dst any, proto *int) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxReadRequest)
	return decode(w, r, dst, proto)
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
	if !rh.decode(w, r, &req, &req.Proto) {
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
	approach := core.Approach(req.Approach)
	if req.Approach == "" {
		approach = core.UDI
	}
	sn := sys.Snapshot()
	rs, err := sn.RunCtx(r.Context(), approach, q)
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
	if !rh.decode(w, r, &req, &req.Proto) {
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
	if !rh.decode(w, r, &req, &req.Proto) {
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
	if !decode(w, r, &req, &req.Proto) {
		return
	}
	sys := h.ready(w)
	if sys == nil {
		return
	}
	if err := sys.SubmitFeedback(req.Feedback); err != nil {
		if errors.Is(err, core.ErrUnknownSource) {
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeUnknownSource, err.Error(), nil)
		} else {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		}
		return
	}
	h.reg.Add("shardrpc.host.feedback", 1)
	writeJSON(w, http.StatusOK, FeedbackResponse{Epoch: sys.Snapshot().Epoch})
}

// handleAdopt applies a coordinator adoption idempotently: sources
// already present (a retry after a lost response) are skipped, and the
// pushed mediation is installed either way — exactly the durable
// coordinator's redo discipline, which makes retrying this endpoint
// safe.
func (h *Host) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var req AdoptRequest
	if !decode(w, r, &req, &req.Proto) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sys := h.ready(w)
	if sys == nil {
		return
	}
	med, err := DecodeMed(req.Med)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	srcs, err := DecodeSources(req.Sources)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	have := make(map[string]bool)
	for _, s := range sys.Snapshot().Corpus.Sources {
		have[s.Name] = true
	}
	missing := make([]*schema.Source, 0, len(srcs))
	for _, s := range srcs {
		if !have[s.Name] {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		err = sys.ShardAdoptSources(missing, med)
	} else {
		err = sys.ShardSetMediation(med)
	}
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	if err := h.persistStructuralLocked(); err != nil {
		httpapi.WriteStatusError(w, err)
		return
	}
	h.stateGen.Add(1)
	h.reg.Add("shardrpc.host.adopts", 1)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: sys.Snapshot().Epoch, StateGen: h.stateGen.Load()})
}

// handleDrop drops a source idempotently: an absent name (a retry)
// still installs the pushed mediation.
func (h *Host) handleDrop(w http.ResponseWriter, r *http.Request) {
	var req DropRequest
	if !decode(w, r, &req, &req.Proto) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sys := h.ready(w)
	if sys == nil {
		return
	}
	med, err := DecodeMed(req.Med)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	present := false
	for _, s := range sys.Snapshot().Corpus.Sources {
		if s.Name == req.Name {
			present = true
			break
		}
	}
	if present {
		err = sys.ShardDropSource(req.Name, med)
	} else {
		err = sys.ShardSetMediation(med)
	}
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	if err := h.persistStructuralLocked(); err != nil {
		httpapi.WriteStatusError(w, err)
		return
	}
	h.stateGen.Add(1)
	h.reg.Add("shardrpc.host.drops", 1)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: sys.Snapshot().Epoch, StateGen: h.stateGen.Load()})
}

func (h *Host) handleMediation(w http.ResponseWriter, r *http.Request) {
	var req MediationRequest
	if !decode(w, r, &req, &req.Proto) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sys := h.ready(w)
	if sys == nil {
		return
	}
	med, err := DecodeMed(req.Med)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	if err := sys.ShardSetMediation(med); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
		return
	}
	if err := h.persistStructuralLocked(); err != nil {
		httpapi.WriteStatusError(w, err)
		return
	}
	h.stateGen.Add(1)
	h.reg.Add("shardrpc.host.mediations", 1)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: sys.Snapshot().Epoch, StateGen: h.stateGen.Load()})
}

// handleReplace installs a wholesale state replacement: either a persist
// snapshot stream (Content-Type application/octet-stream) or the JSON
// empty-projection form. Idempotent by construction — re-applying the
// same replacement converges to the same state.
func (h *Host) handleReplace(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var next *core.System
	if ct := r.Header.Get("Content-Type"); ct == "application/json" {
		var req ReplaceEmptyRequest
		if !decode(w, r, &req, &req.Proto) {
			return
		}
		if !req.Empty {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery,
				"JSON replace form is only for empty projections; ship a snapshot stream otherwise", nil)
			return
		}
		med, err := DecodeMed(req.Med)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
			return
		}
		target, err := DecodeTarget(req.Target)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
			return
		}
		next, err = core.NewEmptyShard(req.Domain, h.cfg, med, target)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
			return
		}
	} else {
		if v := r.Header.Get("X-UDI-Proto"); v != strconv.Itoa(Version) {
			httpapi.WriteError(w, http.StatusBadRequest, CodeProtocolMismatch,
				fmt.Sprintf("protocol version %q, host speaks %d", v, Version), nil)
			return
		}
		sys, _, err := persist.LoadWithSeq(r.Body, h.cfg)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery,
				fmt.Sprintf("bad snapshot stream: %v", err), nil)
			return
		}
		next = sys
	}

	cur := h.sys.Load()
	if cur != nil {
		// In-place replacement keeps the epoch monotone and the persist
		// store attached to the same System.
		if err := cur.ShardReplaceState(next); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadQuery, err.Error(), nil)
			return
		}
	} else {
		h.sys.Store(next)
		cur = next
	}
	if err := h.persistStructuralLocked(); err != nil {
		httpapi.WriteStatusError(w, err)
		return
	}
	h.stateGen.Add(1)
	h.reg.Add("shardrpc.host.replaces", 1)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: cur.Snapshot().Epoch, StateGen: h.stateGen.Load()})
}

// persistStructuralLocked makes a structural change durable. Structural
// ops commit with a nil Op (never WAL-logged), so durability is a forced
// checkpoint; an empty shard cannot be checkpointed and holds no store
// files at all (the internal/shard convention). Caller holds h.mu.
func (h *Host) persistStructuralLocked() error {
	if h.opts.DataDir == "" {
		return nil
	}
	sys := h.sys.Load()
	if sys == nil {
		return nil
	}
	empty := len(sys.Snapshot().Corpus.Sources) == 0
	st := h.store.Load()
	if empty {
		if st != nil {
			st.Close()
			h.store.Store(nil)
		}
		if err := persist.RemoveStoreFiles(h.opts.DataDir); err != nil {
			return &httpapi.StatusError{Status: http.StatusInternalServerError, Code: httpapi.CodeInternal,
				Message: fmt.Sprintf("drop store: %v", err)}
		}
		return nil
	}
	if st == nil {
		// First non-empty state on a durable host: initialize the store
		// around the served system (writes the first checkpoint and
		// attaches the WAL for feedback).
		if err := persist.RemoveStoreFiles(h.opts.DataDir); err != nil {
			return &httpapi.StatusError{Status: http.StatusInternalServerError, Code: httpapi.CodeInternal,
				Message: fmt.Sprintf("reset store: %v", err)}
		}
		_, newSt, err := persist.OpenStore(h.opts.DataDir, h.cfg, h.opts.Store, func() (*core.System, error) {
			return sys, nil
		})
		if err != nil {
			return &httpapi.StatusError{Status: http.StatusInternalServerError, Code: httpapi.CodeInternal,
				Message: fmt.Sprintf("open store: %v", err)}
		}
		h.store.Store(newSt)
		return nil
	}
	if err := st.Checkpoint(); err != nil {
		return &httpapi.StatusError{Status: http.StatusInternalServerError, Code: httpapi.CodeInternal,
			Message: fmt.Sprintf("checkpoint: %v", err)}
	}
	return nil
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
	if st := h.store.Load(); st != nil {
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
	w.Header().Set("X-UDI-Durable", strconv.FormatBool(h.store.Load() != nil))
	h.reg.Add("shardrpc.host.state_bootstraps", 1)
	_, _ = w.Write(buf.Bytes())
}

// handleWAL serves the committed WAL tail from the requested sequence as
// raw CRC frames — the exact on-disk layout, so the follower validates
// checksums before applying anything. Typed failures: 410/wal_truncated
// when a checkpoint folded the range away (re-bootstrap), 416/
// wal_beyond_tail when the follower is ahead of the primary.
func (h *Host) handleWAL(w http.ResponseWriter, r *http.Request) {
	st := h.store.Load()
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
	if sys := h.sys.Load(); sys != nil {
		w.Header().Set("X-UDI-Epoch", strconv.FormatUint(sys.Snapshot().Epoch, 10))
	}
	h.reg.Add("shardrpc.host.wal_fetches", 1)
	h.reg.Add("shardrpc.host.wal_records_shipped", int64(tail.Records))
	_, _ = w.Write(frames)
}
