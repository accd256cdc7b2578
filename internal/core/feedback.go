package core

import (
	"errors"
	"fmt"

	"udi/internal/pmapping"
)

// ErrUnknownSource reports feedback or removal addressed to a source the
// system does not serve. Wrapped errors preserve it for errors.Is, which
// the HTTP layer uses to map it onto the unknown_source error code.
var ErrUnknownSource = errors.New("unknown source")

// defaultFeedbackBatch is the group-commit batch cap when
// Config.FeedbackBatch is zero.
const defaultFeedbackBatch = 64

// Feedback is one pay-as-you-go improvement: source attribute SrcAttr of
// the named source does (Confirmed) or does not correspond to a mediated
// attribute. The mediated attribute is identified either by MedName — any
// member name of the cluster, applying to every possible schema whose
// clustering contains it — or, when MedName is empty, by the exact
// (SchemaIdx, MedIdx) pair.
type Feedback struct {
	Source  string
	SrcAttr string
	// MedName identifies the mediated attribute by member name (the usual
	// API-level form; /v1/candidates returns usable names).
	MedName string
	// SchemaIdx/MedIdx target one correspondence exactly; consulted only
	// when MedName is empty.
	SchemaIdx int
	MedIdx    int
	Confirmed bool
}

// feedbackReq is one submission waiting in the group-commit queue; done
// is buffered so the leader can deliver without blocking on the waiter.
type feedbackReq struct {
	fb   Feedback
	done chan error
}

// SubmitFeedback incorporates one feedback item. The affected p-mappings
// are conditioned (see pmapping.Condition) copy-on-write behind the
// single-writer commit lock, so in-flight queries keep serving the
// previous epoch and the new state becomes visible atomically. A failed
// submission (unknown source, bad target, conditioning error) publishes
// nothing. This is the pay-as-you-go improvement loop the paper leaves as
// future work (§9).
//
// Concurrent submissions group-commit: the first submission to find no
// leader drains the queue in batches of up to Config.FeedbackBatch,
// conditioning every op into one working copy, making the whole batch
// durable under a single WAL fsync, and publishing a single epoch —
// followers just wait for their result. Each op is individually
// all-or-nothing and individually acknowledged; only the barriers are
// shared, so the committed state equals the ops applied one at a time in
// log order (internal/reference is that serial oracle).
func (s *System) SubmitFeedback(fb Feedback) error {
	req := &feedbackReq{fb: fb, done: make(chan error, 1)}
	s.fbMu.Lock()
	s.fbQueue = append(s.fbQueue, req)
	if s.fbLeader {
		// A leader is draining; it will commit this request in one of its
		// batches and deliver the result.
		s.fbMu.Unlock()
		return <-req.done
	}
	s.fbLeader = true
	for {
		n := len(s.fbQueue)
		if n == 0 {
			// Re-checked under fbMu after the last batch: no request can
			// slip in between this check and clearing the flag, so no
			// submission is ever stranded leaderless.
			s.fbLeader = false
			s.fbMu.Unlock()
			return <-req.done
		}
		if lim := s.feedbackBatchMax(); n > lim {
			n = lim
		}
		batch := s.fbQueue[:n:n]
		rest := make([]*feedbackReq, len(s.fbQueue)-n)
		copy(rest, s.fbQueue[n:])
		s.fbQueue = rest
		s.fbMu.Unlock()
		s.commitFeedbackBatch(batch)
		s.fbMu.Lock()
	}
}

func (s *System) feedbackBatchMax() int {
	if s.Cfg.FeedbackBatch > 0 {
		return s.Cfg.FeedbackBatch
	}
	return defaultFeedbackBatch
}

// commitFeedbackBatch commits one batch of queued submissions as one
// write: a single acquisition of the writer lock, one durability barrier
// and one published epoch.
//
//  1. Plan: condition every op into a private working copy of Maps. A
//     failed op leaves the copy as the previous op left it and is
//     excluded — it is rejected to its caller without ever reaching the
//     log.
//  2. The entry logs every surviving op under one fsync. On failure the
//     working copy is discarded: nothing was published and nothing
//     remains in the log.
//  3. Install: swap the working copy in; the entry publishes one epoch
//     (whose consolidation memo starts empty) and the batch is
//     acknowledged. The cached plans need nothing: the next query finds
//     exactly the fed-back sources' p-mappings changed and re-resolves
//     their ops alone (see answer.PlanCache).
//     The schema-dedup cache needs nothing: feedback conditions
//     per-source clones, never a canonical value, so every entry still
//     holds what a fresh pmapping.Build computes.
//
// A crash between 2 and 3 leaves durable-but-unacknowledged ops, which
// recovery replays (see persist's TestCrashBetweenAppendAndPublish). A
// crash inside 2 leaves a clean prefix of the batch's records
// (wal.Append's guarantee), and replaying a prefix is deterministic
// because only successfully-applied ops were logged.
func (s *System) commitFeedbackBatch(batch []*feedbackReq) {
	results := make([]error, len(batch))
	var okIdx []int
	err := s.write("feedback", func() (txn, error) {
		work := clonedMaps(s.Maps)
		var ops []Op
		for i, req := range batch {
			if err := s.conditionFeedback(work, req.fb); err != nil {
				results[i] = err
				continue
			}
			fb := req.fb
			ops = append(ops, Op{Kind: OpFeedback, Feedback: &fb})
			okIdx = append(okIdx, i)
		}
		if len(ops) == 0 {
			return txn{}, nil
		}
		return txn{ops: ops, count: len(ops), install: func() { s.Maps = work }}, nil
	})
	if err != nil {
		for _, i := range okIdx {
			results[i] = err
		}
	} else if r := s.Cfg.Obs; len(okIdx) > 0 && r.Enabled() {
		r.Add("feedback.batch.commits", 1)
		r.Add("feedback.batch.ops", int64(len(okIdx)))
		if rejected := len(batch) - len(okIdx); rejected > 0 {
			r.Add("feedback.batch.rejected", int64(rejected))
		}
		r.Observe("feedback.batch.size", float64(len(okIdx)))
	}
	deliverFeedback(batch, results)
}

func deliverFeedback(batch []*feedbackReq, results []error) {
	for i, req := range batch {
		req.done <- results[i]
	}
}

// conditionFeedback resolves one feedback item's targets and applies it
// to cloned p-mappings inside work, the batch's private working copy of
// Maps. On success work[fb.Source] points at the conditioned p-mappings;
// on error work is
// exactly as the caller left it, so ops stay individually all-or-nothing
// even mid-batch. Caller holds the commit lock.
func (s *System) conditionFeedback(work map[string][]*pmapping.PMapping, fb Feedback) error {
	pms, ok := work[fb.Source]
	if !ok {
		return fmt.Errorf("core: %w %q", ErrUnknownSource, fb.Source)
	}

	// Resolve the (schema, mediated attribute) pairs the feedback touches.
	type target struct{ schemaIdx, medIdx int }
	var targets []target
	if fb.MedName != "" {
		for l, m := range s.Med.PMed.Schemas {
			cluster := m.ClusterOf(fb.MedName)
			if cluster == nil {
				continue
			}
			for j, a := range m.Attrs {
				if a.Key() == cluster.Key() {
					targets = append(targets, target{l, j})
					break
				}
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("core: no mediated attribute contains %q", fb.MedName)
		}
	} else {
		if fb.SchemaIdx < 0 || fb.SchemaIdx >= len(pms) {
			return fmt.Errorf("core: schema index %d out of range [0,%d)", fb.SchemaIdx, len(pms))
		}
		if fb.MedIdx < 0 || fb.MedIdx >= len(s.Med.PMed.Schemas[fb.SchemaIdx].Attrs) {
			return fmt.Errorf("core: mediated attribute %d out of range", fb.MedIdx)
		}
		targets = append(targets, target{fb.SchemaIdx, fb.MedIdx})
	}

	// Copy-on-write: condition clones, leaving every published snapshot's
	// p-mappings untouched. Conditioning errors abort before anything is
	// installed, so feedback is all-or-nothing even across schemas. An op
	// later in a batch clones the previous op's clone — value-correct,
	// and the canonical dedup entries are never touched either way.
	next := make([]*pmapping.PMapping, len(pms))
	copy(next, pms)
	cloned := make(map[int]bool, len(targets))
	for _, t := range targets {
		if !cloned[t.schemaIdx] {
			next[t.schemaIdx] = next[t.schemaIdx].Clone()
			cloned[t.schemaIdx] = true
		}
		if err := next[t.schemaIdx].Condition(fb.SrcAttr, t.medIdx, fb.Confirmed, s.Cfg.PMap); err != nil {
			return err
		}
	}
	work[fb.Source] = next
	return nil
}
