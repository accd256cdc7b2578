package core

// This file defines the hook a durability layer (internal/persist.Store)
// uses to log the single-writer commit path. The core stays
// storage-agnostic: it describes each mutation as a serializable Op and
// calls the CommitLog between apply and publish; what "durable" means
// (WAL framing, fsync, checkpoints) lives behind the interface.

import (
	"errors"

	"udi/internal/schema"
)

// ErrCommitLog reports a commit the durability layer could not log. The
// request itself was valid; the server failed it, so the HTTP layers
// answer 500 rather than blaming the client.
var ErrCommitLog = errors.New("core: commit log")

// Op kinds, one per mutation the commit path accepts.
const (
	OpFeedback     = "feedback"
	OpAddSource    = "add_source"
	OpRemoveSource = "remove_source"
)

// Op describes one serving-state mutation in a replayable form: applying
// the same Op to the same system state deterministically reproduces the
// commit. Exactly one payload field is set, matching Kind.
type Op struct {
	Kind     string      `json:"kind"`
	Feedback *Feedback   `json:"feedback,omitempty"`
	Add      *SourceData `json:"add,omitempty"`
	Remove   string      `json:"remove,omitempty"`
}

// SourceData is the raw content of a source — the one interchange shape
// a source table takes in WAL ops, snapshots, the coordinator journal,
// the shard RPC and the /v1/sources body.
type SourceData struct {
	Name  string     `json:"name"`
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

// DataOf flattens a source to its interchange shape (sharing its slices).
func DataOf(src *schema.Source) SourceData {
	return SourceData{Name: src.Name, Attrs: src.Attrs, Rows: src.Rows}
}

// Source validates the content and rebuilds the source.
func (d SourceData) Source() (*schema.Source, error) {
	return schema.NewSource(d.Name, d.Attrs, d.Rows)
}

// CommitLog hooks a durability layer into the commit path. The protocol
// is apply-before-log for every mutation kind: a commit first builds its
// next state privately (anything that can fail, fails here, and a failed
// mutation never reaches the log), then logs, then installs and
// publishes. Both methods run with the single-writer commit lock held.
//
//	Begin(ops)           assign the already-applied ops consecutive
//	                     sequence numbers starting at firstSeq and make
//	                     all of them durable under one sync barrier; an
//	                     error fails the commit with nothing published
//	                     and the writer state untouched.
//	Committed(first, n)  the n ops published as one epoch; checkpoint
//	                     rotation hangs off this.
//
// A crash at any instant leaves a clean prefix of the ops in the log,
// and replaying that prefix reproduces a state every surviving op's
// caller could have observed — so the log needs no compensating records.
type CommitLog interface {
	Begin(ops []Op) (firstSeq uint64, err error)
	Committed(firstSeq uint64, n int)
}

// SetCommitLog attaches a durability layer to the commit path. Attach it
// before serving mutations (it is read under the commit lock but must
// not change while commits run); a nil log restores in-memory-only
// commits. Recovery replays a WAL into a system *before* attaching the
// log, so replayed mutations are not re-logged.
func (s *System) SetCommitLog(l CommitLog) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.clog = l
}

// Barrier runs fn while holding the single-writer commit lock, with no
// mutation in flight. Durability layers use it to read a stable view of
// the writer state (e.g. checkpointing a snapshot) without racing
// commits; queries are unaffected (they read published snapshots).
func (s *System) Barrier(fn func()) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	fn()
}
