// Package shardrpc lifts the shard boundary onto the network: a Host
// serves one shard's core.System over a versioned HTTP protocol, a stub
// is the shard.Shard that drives one host's read set over it, and a
// Coordinator hands those stubs to the one scatter-gather coordinator
// (internal/shard) — so the networked answers are bit-identical to the
// in-process scatter-gather (and to a single engine over the whole
// corpus) by construction: it is the same fan-out and the same merge.
//
// Protocol surface (all under the shard host's listener):
//
//	GET  /v1/shard/status      health, protocol version, epoch, state gen
//	POST /v1/shard/query       one shard's partial result: a binary frame (part.go)
//	POST /v1/shard/explain     one shard's provenance contributions
//	POST /v1/shard/candidates  one shard's feedback question queue
//	POST /v1/shard/feedback    apply feedback owned by this shard (NOT idempotent)
//	POST /v1/shard/restructure become the pushed corpus, mediation, target and p-mappings (idempotent)
//	GET  /v1/shard/state       bootstrap snapshot for replicas
//	GET  /v1/wal?from=N        committed WAL tail frames for replicas
//
// Mutating endpoints are idempotent on the server side (the host drives
// the same shard.Local verbs the durable coordinator's crash redo relies
// on), so the coordinator may retry them after an ambiguous failure — except feedback, which
// conditions probabilities multiplicatively and is therefore never
// retried: a lost response leaves it unknown whether the mutation
// landed, and re-sending could double-apply.
//
// Probabilities that feed a merge cross the wire as IEEE-754 bit
// patterns (math.Float64bits) — raw in the query leg's binary frame,
// integers in the JSON bodies — so merged answers are `==`-identical to
// the in-process merge no matter what intermediaries re-encode the JSON.
// The p-mappings a restructure carries use the persist snapshot's codec,
// whose JSON numbers encoding/json writes in round-trip-exact form.
package shardrpc

import (
	"fmt"
	"math"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/mediate"
	"udi/internal/persist"
	"udi/internal/schema"
	"udi/internal/shard"
)

// Version is the shard RPC protocol version. A coordinator refuses to
// drive a host reporting a different version: the wire DTOs below and
// the partial-result frame are the compatibility contract, and silently
// mixing them would corrupt merges rather than fail typed. The refusal
// is the only compatibility mechanism — nothing is negotiated. Version 2
// replaced the JSON query response of version 1 with the frame; version
// 3 replaced the adopt, drop and mediation routes with restructure;
// version 4 folded replace into restructure, whose body now carries the
// shard's corpus, target and p-mappings; version 5 made instances opt-in
// on the query leg (QueryRequest.Instances) and gave every per-source
// entry of the frame its occurrence count.
const Version = 5

// StatusResponse is the GET /v1/shard/status body.
type StatusResponse struct {
	Proto int  `json:"proto"`
	Ready bool `json:"ready"`
	// Epoch is the shard core's commit counter; StateGen counts
	// structural (non-WAL-logged) state changes — restructures — so WAL
	// followers know when replay alone cannot catch them up.
	Epoch      uint64 `json:"epoch"`
	StateGen   uint64 `json:"state_gen"`
	NumSources int    `json:"num_sources"`
	// Durable reports an attached persist.Store; CommittedSeq is its
	// shippable WAL watermark (0 when not durable).
	Durable      bool   `json:"durable"`
	CommittedSeq uint64 `json:"committed_seq"`
	// Replica marks a WAL follower serving the read-only shard surface.
	// The remaining fields are its replication position, which a routing
	// coordinator compares against the primary's status to decide
	// staleness eligibility: AppliedSeq is the last WAL sequence replayed
	// into serving state, PrimaryCommittedSeq/PrimaryEpoch are the
	// primary's watermarks at the follower's last successful sync, and
	// Synced reports whether the follower has bootstrapped at all. All
	// zero on primaries (additive; the protocol version is unchanged).
	Replica             bool   `json:"replica,omitempty"`
	AppliedSeq          uint64 `json:"applied_seq,omitempty"`
	PrimaryCommittedSeq uint64 `json:"primary_committed_seq,omitempty"`
	PrimaryEpoch        uint64 `json:"primary_epoch,omitempty"`
	Synced              bool   `json:"synced,omitempty"`
}

// QueryRequest is the POST /v1/shard/query body. The query travels as
// SQL text and is parsed host-side: the parse is deterministic, and
// shipping text keeps the protocol independent of parser internals.
// Instances asks for the instance list (by-tuple ranking reads it); a
// by-table leg leaves it false and the frame carries occurrence counts
// only. The answer is not JSON: see part.go.
type QueryRequest struct {
	Proto     int    `json:"proto"`
	Query     string `json:"query"`
	Approach  string `json:"approach,omitempty"`
	Instances bool   `json:"instances,omitempty"`
}

// ExplainRequest is the POST /v1/shard/explain body.
type ExplainRequest struct {
	Proto  int      `json:"proto"`
	Query  string   `json:"query"`
	Values []string `json:"values"`
}

// ExplainResponse carries one shard's provenance contributions.
// Contribution masses are display values, not merge inputs, so they
// travel as plain JSON floats.
type ExplainResponse struct {
	Epoch         uint64                `json:"epoch"`
	Contributions []answer.Contribution `json:"contributions"`
}

// CandidatesRequest is the POST /v1/shard/candidates body. Limit 0
// means all (the coordinator merges and truncates globally).
type CandidatesRequest struct {
	Proto int `json:"proto"`
	Limit int `json:"limit"`
}

// CandidatesResponse carries one shard's feedback question queue.
type CandidatesResponse struct {
	Epoch      uint64          `json:"epoch"`
	Candidates []WireCandidate `json:"candidates"`
}

// FeedbackRequest is the POST /v1/shard/feedback body.
type FeedbackRequest struct {
	Proto    int           `json:"proto"`
	Feedback core.Feedback `json:"feedback"`
}

// FeedbackResponse acknowledges an applied feedback mutation.
type FeedbackResponse struct {
	Epoch uint64 `json:"epoch"`
}

// RestructureRequest is the POST /v1/shard/restructure body: one
// shard.Change. Sources names the shard's corpus afterwards in global
// order, Add carries rows only for the sources the shard may lack, and
// Maps the p-mappings that change, indexed by Med's schema sequence.
// Idempotent: it says what the shard becomes, so re-sending converges.
type RestructureRequest struct {
	Proto   int                  `json:"proto"`
	Domain  string               `json:"domain"`
	Sources []string             `json:"sources"`
	Add     []WireSource         `json:"add"`
	Med     WireMed              `json:"med"`
	Target  [][]string           `json:"target"`
	Maps    []persist.SourceMaps `json:"maps"`
}

// MutationResponse acknowledges an applied structural mutation.
type MutationResponse struct {
	Epoch    uint64 `json:"epoch"`
	StateGen uint64 `json:"state_gen"`
}

// --- wire value types -------------------------------------------------

// WireSource is one source table on the wire.
type WireSource = core.SourceData

// WireMed is a p-med-schema on the wire: clusterings as string arrays
// (the journal format the durable coordinator already proves out) and
// probabilities as IEEE-754 bit patterns for exactness.
type WireMed struct {
	Schemas  [][][]string `json:"schemas"`
	ProbBits []uint64     `json:"prob_bits"`
}

// WireCandidate is one feedback candidate with bit-exact scores.
type WireCandidate struct {
	Source          string `json:"source"`
	SchemaIdx       int    `json:"schema_idx"`
	SrcAttr         string `json:"src_attr"`
	MedIdx          int    `json:"med_idx"`
	MarginalBits    uint64 `json:"marginal_bits"`
	UncertaintyBits uint64 `json:"uncertainty_bits"`
}

// --- encode/decode ----------------------------------------------------

// EncodeMed flattens a mediation result to the wire. Only the PMed
// travels: shard-host primitives build everything else locally, and the
// reconciliation path in internal/shard already proves a PMed-only
// mediate.Result drives them correctly.
func EncodeMed(med *mediate.Result) WireMed {
	w := WireMed{Schemas: med.PMed.Clusters(), ProbBits: make([]uint64, len(med.PMed.Probs))}
	for i, p := range med.PMed.Probs {
		w.ProbBits[i] = math.Float64bits(p)
	}
	return w
}

// DecodeMed rebuilds (and validates) the mediation result.
func DecodeMed(w WireMed) (*mediate.Result, error) {
	probs := make([]float64, len(w.ProbBits))
	for i, b := range w.ProbBits {
		probs[i] = math.Float64frombits(b)
	}
	pmed, err := schema.PMedFromClusters(w.Schemas, probs)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: wire p-med-schema: %w", err)
	}
	return &mediate.Result{PMed: pmed}, nil
}

// EncodeChange flattens one shard.Change to its restructure body.
func EncodeChange(ch shard.Change) RestructureRequest {
	return RestructureRequest{Proto: Version, Domain: ch.Domain, Sources: ch.Sources,
		Add: EncodeSources(ch.Add), Med: EncodeMed(ch.Med), Target: ch.Target.Clusters(),
		Maps: persist.EncodeMaps(ch.Sources, ch.Maps)}
}

// DecodeChange rebuilds (and validates) the change a restructure body
// carries; whether it fits the shard's state is the verb's to judge.
func DecodeChange(req RestructureRequest) (shard.Change, error) {
	med, err := DecodeMed(req.Med)
	if err != nil {
		return shard.Change{}, err
	}
	target, err := schema.FromClusters(req.Target)
	if err != nil {
		return shard.Change{}, fmt.Errorf("shardrpc: wire target: %w", err)
	}
	add, err := DecodeSources(req.Add)
	if err != nil {
		return shard.Change{}, err
	}
	maps, err := persist.DecodeMaps(req.Maps, med.PMed)
	if err != nil {
		return shard.Change{}, fmt.Errorf("shardrpc: wire p-mappings: %w", err)
	}
	return shard.Change{Domain: req.Domain, Sources: req.Sources, Add: add, Med: med, Target: target, Maps: maps}, nil
}

// EncodeSources flattens source tables.
func EncodeSources(srcs []*schema.Source) []WireSource {
	out := make([]WireSource, len(srcs))
	for i, s := range srcs {
		out[i] = core.DataOf(s)
	}
	return out
}

// DecodeSources rebuilds source tables (validating shape).
func DecodeSources(ws []WireSource) ([]*schema.Source, error) {
	out := make([]*schema.Source, len(ws))
	for i, w := range ws {
		s, err := w.Source()
		if err != nil {
			return nil, fmt.Errorf("shardrpc: wire source %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// EncodeCandidates flattens feedback candidates with bit-exact scores.
func EncodeCandidates(cands []feedback.Candidate) []WireCandidate {
	out := make([]WireCandidate, len(cands))
	for i, c := range cands {
		out[i] = WireCandidate{
			Source:          c.Source,
			SchemaIdx:       c.SchemaIdx,
			SrcAttr:         c.SrcAttr,
			MedIdx:          c.MedIdx,
			MarginalBits:    math.Float64bits(c.Marginal),
			UncertaintyBits: math.Float64bits(c.Uncertainty),
		}
	}
	return out
}

// DecodeCandidates rebuilds feedback candidates.
func DecodeCandidates(ws []WireCandidate) []feedback.Candidate {
	out := make([]feedback.Candidate, len(ws))
	for i, w := range ws {
		out[i] = feedback.Candidate{
			Source:      w.Source,
			SchemaIdx:   w.SchemaIdx,
			SrcAttr:     w.SrcAttr,
			MedIdx:      w.MedIdx,
			Marginal:    math.Float64frombits(w.MarginalBits),
			Uncertainty: math.Float64frombits(w.UncertaintyBits),
		}
	}
	return out
}
