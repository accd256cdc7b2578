package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/feedback"
	"udi/internal/sqlparse"
)

const topK = 10 // every query asks for its ten best answers

// expected is the oracle's answer to one query: what a direct single-core
// Snapshot.RunCtx + TopK returns, which every serving shape must equal
// bit for bit.
type expected struct {
	answers  []client.QueryAnswer
	distinct int
}

// oracleAnswers runs every query against the system directly, with no
// HTTP, no shards and no wire in between.
func oracleAnswers(sys *core.System, queries []string) ([]expected, error) {
	sn := sys.Snapshot()
	out := make([]expected, len(queries))
	for i, qs := range queries {
		q, err := sqlparse.Parse(qs)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		rs, err := sn.RunCtx(context.Background(), core.UDI, q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i].distinct = len(rs.Ranked)
		for _, a := range rs.TopK(topK) {
			out[i].answers = append(out[i].answers, client.QueryAnswer{Values: a.Values, Prob: a.Prob})
		}
	}
	return out, nil
}

// matches reports whether a response equals the oracle's: same tuples in
// the same order, probabilities ==, same distinct count.
func (e expected) matches(r *client.QueryResponse) bool {
	return r.Distinct == e.distinct && slices.EqualFunc(e.answers, r.Answers,
		func(x, y client.QueryAnswer) bool { return x.Prob == y.Prob && slices.Equal(x.Values, y.Values) })
}

// wellFormed is the check for a read that races a writer, where no single
// expected answer exists: ranked order, probabilities in (0,1], at most
// topK answers out of at least that many distinct ones.
func wellFormed(r *client.QueryResponse) bool {
	if len(r.Answers) > topK || r.Distinct < len(r.Answers) {
		return false
	}
	for i, a := range r.Answers {
		if !(a.Prob > 0 && a.Prob <= 1) || (i > 0 && a.Prob > r.Answers[i-1].Prob) {
			return false
		}
	}
	return true
}

// checksum folds the p-med-schema and every p-mapping probability into one
// number: repeated builds of one corpus must agree on it.
func checksum(sys *core.System) uint64 {
	h := fnv.New64a()
	word := func(f float64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
	}
	sn := sys.Snapshot()
	for l, m := range sn.Med.PMed.Schemas {
		h.Write([]byte(m.Key()))
		word(sn.Med.PMed.Probs[l])
	}
	for _, src := range sn.Corpus.Sources {
		for _, pm := range sn.Maps[src.Name] {
			for _, g := range pm.Groups {
				for _, p := range g.Probs {
					word(p)
				}
			}
		}
	}
	return h.Sum64()
}

// op is one scheduled mutation of serve.mixed.
type op struct {
	Kind     string                 // "feedback", "add" or "remove"
	Feedback client.FeedbackRequest // Kind feedback
	Sources  []client.SourcePayload // Kind add
	Name     string                 // Kind remove
}

// The mutation cycle: feedbackPerCycle feedback items, then one batch add
// of the held-out sources, then one remove for each of them.
const feedbackPerCycle = 15

// planOps pre-generates serve.mixed's mutation list by driving twin, an
// in-memory system over the same corpus: feedback items are the session's
// most uncertain correspondences answered by the golden oracle, and an
// item the twin rejects is left out, so no scheduled op can fail. twin
// ends in the state the served system must reach.
func planOps(twin *core.System, in *inputs, n int) ([]op, error) {
	oracle := &feedback.GoldenOracle{Corpus: in.gen}
	cands := feedback.NewSession(twin, oracle).Candidates(2 * n)
	payload := make([]client.SourcePayload, len(in.held))
	for i, s := range in.held {
		payload[i] = client.SourcePayload{Name: s.Name, Attrs: s.Attrs, Rows: s.Rows}
	}
	cycle := feedbackPerCycle + 1 + len(in.held)
	ops := make([]op, 0, n)
	for len(ops) < n {
		switch pos := len(ops) % cycle; {
		case pos < feedbackPerCycle:
			fb, rest, err := nextFeedback(twin, oracle, cands)
			if err != nil {
				return nil, err
			}
			cands = rest
			ops = append(ops, op{Kind: "feedback", Feedback: fb})
		case pos == feedbackPerCycle:
			if _, err := twin.AddSources(in.held); err != nil {
				return nil, fmt.Errorf("twin add: %w", err)
			}
			ops = append(ops, op{Kind: "add", Sources: payload})
		default:
			name := in.held[pos-feedbackPerCycle-1].Name
			if _, err := twin.RemoveSource(name); err != nil {
				return nil, fmt.Errorf("twin remove: %w", err)
			}
			ops = append(ops, op{Kind: "remove", Name: name})
		}
	}
	return ops, nil
}

// feedbackFor answers one candidate question with the golden oracle. It is
// invalid when the candidate's indices no longer name a cluster.
func feedbackFor(sn *core.Snapshot, oracle feedback.Oracle, c feedback.Candidate) (core.Feedback, bool) {
	schemas := sn.Med.PMed.Schemas
	if c.SchemaIdx >= len(schemas) || c.MedIdx >= len(schemas[c.SchemaIdx].Attrs) {
		return core.Feedback{}, false
	}
	cluster := schemas[c.SchemaIdx].Attrs[c.MedIdx]
	return core.Feedback{Source: c.Source, SrcAttr: c.SrcAttr, MedName: cluster[0],
		Confirmed: oracle.Correct(c.Source, c.SrcAttr, cluster)}, true
}

// nextFeedback applies the first candidate the twin accepts and returns it
// in the form the /v1/feedback endpoint takes, with the candidates left.
func nextFeedback(twin *core.System, oracle feedback.Oracle, cands []feedback.Candidate) (client.FeedbackRequest, []feedback.Candidate, error) {
	for i, c := range cands {
		fb, valid := feedbackFor(twin.Snapshot(), oracle, c)
		if valid && twin.SubmitFeedback(fb) == nil {
			return client.FeedbackRequest{Source: fb.Source, SrcAttr: fb.SrcAttr, MedName: fb.MedName, Confirmed: fb.Confirmed}, cands[i+1:], nil
		}
	}
	return client.FeedbackRequest{}, nil, fmt.Errorf("feedback candidates exhausted")
}
