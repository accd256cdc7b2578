// Package feedback implements the pay-as-you-go improvement loop the
// paper motivates and defers to future work (§9, citing "Pay-as-you-go
// user feedback for dataspace systems"): the system ranks its own
// correspondence uncertainty, asks a user (here: an oracle derived from
// the golden standard) to confirm or reject the most uncertain
// correspondences, and conditions its probabilistic mappings on each
// answer. The paper's claim — "the foundation of modeling uncertainty will
// help pinpoint where human feedback can be most effective" — becomes
// measurable: quality as a function of feedback effort.
package feedback

import (
	"fmt"
	"math"
	"sort"

	"udi/internal/core"
	"udi/internal/datagen"
)

// Candidate is one correspondence the system is uncertain about.
type Candidate struct {
	Source    string
	SchemaIdx int
	SrcAttr   string
	MedIdx    int
	// Marginal is the current probability that the correspondence holds.
	Marginal float64
	// Uncertainty is the binary entropy of the marginal weighted by the
	// schema probability: the expected information gained by asking.
	Uncertainty float64
}

// Oracle answers whether a source attribute truly corresponds to a
// mediated attribute (a cluster of attribute names) — the role the human
// administrator plays in a deployment.
type Oracle interface {
	Correct(source, srcAttr string, clusterNames []string) bool
}

// GoldenOracle answers from the synthetic corpus's golden standard: the
// correspondence is correct when the source attribute's true concept is
// among the concepts the cluster denotes. A cluster's specific member
// names disambiguate its generic ones — a human shown the cluster
// {phone, o-phone} reads it as "office phone" and rejects a home-phone
// column — so generic names contribute their whole family's concepts only
// when the cluster contains no specific member.
type GoldenOracle struct {
	Corpus *datagen.Corpus
}

// Correct implements Oracle.
func (o *GoldenOracle) Correct(source, srcAttr string, clusterNames []string) bool {
	truth := o.Corpus.AttrConcept[source][srcAttr]
	if truth == "" {
		return false
	}
	concepts := map[string]bool{}
	hasSpecific := false
	var roles []string
	for _, name := range clusterNames {
		if key, ok := o.Corpus.NameConcept[name]; ok {
			concepts[key] = true
			hasSpecific = true
			continue
		}
		if role, ok := o.Corpus.GenericRole[name]; ok {
			roles = append(roles, role)
		}
	}
	if !hasSpecific {
		for _, role := range roles {
			for _, f := range o.Corpus.Domain.Families {
				if f.Role != role {
					continue
				}
				for _, key := range f.ByProfile {
					concepts[key] = true
				}
			}
		}
	}
	return concepts[truth]
}

// Session drives feedback rounds against a configured system. Each public
// call captures one serving snapshot and ranks against it, so a session
// interleaves safely with concurrent queries and mutations; the feedback
// it applies goes through the system's commit path.
type Session struct {
	Sys    *core.System
	Oracle Oracle

	asked map[string]bool
	// Applied counts feedback items incorporated so far.
	Applied int

	// clusterValues caches, per (schema, cluster), the set of values seen
	// in columns confidently mapped to the cluster; used by the
	// instance-based proposal signal.
	clusterValues map[[2]int]map[string]bool
	// colValues caches per (source, attr) the column's value set.
	colValues map[[2]string]map[string]bool
}

// NewSession starts a feedback session.
func NewSession(sys *core.System, oracle Oracle) *Session {
	return &Session{
		Sys: sys, Oracle: oracle,
		asked:         make(map[string]bool),
		clusterValues: make(map[[2]int]map[string]bool),
		colValues:     make(map[[2]string]map[string]bool),
	}
}

// valueOverlap returns the containment of the column's value set in the
// cluster's value pool: |col ∩ cluster| / |col|. Containment (rather than
// Jaccard) suits the asymmetry — one column against the union of many.
func (s *Session) valueOverlap(sn *core.Snapshot, source, attr string, schemaIdx, medIdx int) float64 {
	col := s.columnValues(sn, source, attr)
	if len(col) == 0 {
		return 0
	}
	pool := s.clusterPool(sn, schemaIdx, medIdx)
	if len(pool) == 0 {
		return 0
	}
	hit := 0
	for v := range col {
		if pool[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(col))
}

func (s *Session) columnValues(sn *core.Snapshot, source, attr string) map[string]bool {
	key := [2]string{source, attr}
	if vs, ok := s.colValues[key]; ok {
		return vs
	}
	vs := map[string]bool{}
	for _, src := range sn.Corpus.Sources {
		if src.Name != source {
			continue
		}
		idx := src.AttrIndex(attr)
		if idx < 0 {
			break
		}
		for _, row := range src.Rows {
			if row[idx] != "" {
				vs[row[idx]] = true
			}
		}
		break
	}
	s.colValues[key] = vs
	return vs
}

// clusterPool unions the values of every column whose correspondence to
// the cluster has marginal probability at least 0.5.
func (s *Session) clusterPool(sn *core.Snapshot, schemaIdx, medIdx int) map[string]bool {
	key := [2]int{schemaIdx, medIdx}
	if pool, ok := s.clusterValues[key]; ok {
		return pool
	}
	pool := map[string]bool{}
	for _, src := range sn.Corpus.Sources {
		pm := sn.Maps[src.Name][schemaIdx]
		for _, g := range pm.Groups {
			for _, c := range g.Corrs {
				if c.MedIdx != medIdx {
					continue
				}
				if pm.MarginalProb(c.SrcAttr, c.MedIdx) < 0.5 {
					continue
				}
				for v := range s.columnValues(sn, src.Name, c.SrcAttr) {
					pool[v] = true
				}
			}
		}
	}
	s.clusterValues[key] = pool
	return pool
}

// Candidates lists the correspondences ranked by expected information gain
// (most uncertain first), excluding ones already asked. Two kinds are
// proposed: existing correspondences with uncertain marginals, and —
// crucially for recall — source attributes the setup left unmapped in a
// schema (their similarity fell below the correspondence threshold), each
// paired with its most similar mediated attribute. Confirming one of the
// latter injects the missed correspondence, which is how a deployment
// recovers the recall the paper's high threshold gives up (§7.2).
func (s *Session) Candidates(limit int) []Candidate {
	return s.candidates(s.Sys.Snapshot(), limit)
}

// CandidatesIn is Candidates against a caller-captured snapshot, for
// callers that need the returned schema/attribute indices to resolve
// against the exact schemas they are holding.
func (s *Session) CandidatesIn(sn *core.Snapshot, limit int) []Candidate {
	return s.candidates(sn, limit)
}

// candidates ranks against one snapshot, so the scan sees a consistent
// (PMed, Maps) pair even while feedback or source changes commit.
func (s *Session) candidates(sn *core.Snapshot, limit int) []Candidate {
	var out []Candidate
	// AttrSim resolves the configured similarity (default strutil.AttrSim)
	// and serves it from the interned matrix, so ranking candidates over
	// the whole corpus costs map lookups, not string comparisons.
	sim := sn.AttrSim()
	for _, src := range sn.Corpus.Sources {
		pms := sn.Maps[src.Name]
		for l, pm := range pms {
			weight := sn.Med.PMed.Probs[l]
			mapped := map[string]bool{}
			for _, g := range pm.Groups {
				for _, c := range g.Corrs {
					mapped[c.SrcAttr] = true
					key := candidateKey(src.Name, l, c.SrcAttr, c.MedIdx)
					if s.asked[key] {
						continue
					}
					m := pm.MarginalProb(c.SrcAttr, c.MedIdx)
					u := weight * binaryEntropy(m)
					if u <= 1e-12 {
						continue // effectively decided already
					}
					out = append(out, Candidate{
						Source: src.Name, SchemaIdx: l,
						SrcAttr: c.SrcAttr, MedIdx: c.MedIdx,
						Marginal: m, Uncertainty: u,
					})
				}
			}
			med := sn.Med.PMed.Schemas[l]
			for _, attr := range src.Attrs {
				if mapped[attr] {
					continue
				}
				// Propose the best cluster for the unmapped attribute,
				// scored by the stronger of two signals: attribute-name
				// similarity and column-value overlap. The paper notes its
				// matcher "did not look at values in the corresponding
				// columns" (§7.2); the instance-based signal is what lets
				// feedback recover columns whose names match nothing
				// ("fullname", "cost", "teacher").
				bestIdx, bestScore := -1, 0.0
				for j, cluster := range med.Attrs {
					score := 0.0
					for _, name := range cluster {
						if v := sim(attr, name); v > score {
							score = v
						}
					}
					if ov := s.valueOverlap(sn, src.Name, attr, l, j); ov > score {
						score = ov
					}
					if score > bestScore {
						bestScore, bestIdx = score, j
					}
				}
				if bestIdx < 0 || bestScore < 0.3 {
					continue
				}
				key := candidateKey(src.Name, l, attr, bestIdx)
				if s.asked[key] {
					continue
				}
				out = append(out, Candidate{
					Source: src.Name, SchemaIdx: l,
					SrcAttr: attr, MedIdx: bestIdx,
					Marginal:    0,
					Uncertainty: weight * bestScore * binaryEntropy(0.5),
				})
			}
		}
	}
	// The same question can arise from several possible schemas whose
	// clusterings agree on the mediated attribute; a user answers it once,
	// so collapse duplicates, summing their uncertainty (the answer pays
	// off in every schema it applies to).
	byQuestion := map[string]int{}
	dedup := out[:0]
	for _, c := range out {
		key := c.Source + "\x1f" + c.SrcAttr + "\x1f" + s.clusterKeyAt(sn, c.SchemaIdx, c.MedIdx)
		if i, ok := byQuestion[key]; ok {
			dedup[i].Uncertainty += c.Uncertainty
			continue
		}
		byQuestion[key] = len(dedup)
		dedup = append(dedup, c)
	}
	return MergeCandidates(limit, dedup)
}

// MergeCandidates concatenates per-partition question queues into one
// ranking — uncertainty descending, then (source, attribute, mediated
// index) as the deterministic tie-break — truncated to limit (0 = all).
// It is the only place that order is defined: a session ranks its own
// queue through it and a scatter-gather coordinator merges its shards'
// queues through it. The key is a total order and a source lives in
// exactly one partition, so a candidate beyond a partition's own
// top-limit can never enter the global top-limit: merging per-partition
// top-limit queues equals truncating the full merge.
func MergeCandidates(limit int, parts ...[]Candidate) []Candidate {
	var out []Candidate
	if len(parts) == 1 {
		out = parts[0] // a lone list is sorted in place
	} else {
		for _, cs := range parts {
			out = append(out, cs...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Uncertainty != out[j].Uncertainty {
			return out[i].Uncertainty > out[j].Uncertainty
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		if out[i].SrcAttr != out[j].SrcAttr {
			return out[i].SrcAttr < out[j].SrcAttr
		}
		return out[i].MedIdx < out[j].MedIdx
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (s *Session) clusterKeyAt(sn *core.Snapshot, schemaIdx, medIdx int) string {
	return sn.Med.PMed.Schemas[schemaIdx].Attrs[medIdx].Key()
}

// Step asks the oracle about the most uncertain correspondence and
// conditions the system on the answer. The answer applies to every
// possible schema whose clustering contains the same mediated attribute —
// the user answered a question about the cluster, not about one schema.
// It reports whether any candidate remained.
func (s *Session) Step() (Candidate, bool, error) {
	sn := s.Sys.Snapshot()
	cands := s.candidates(sn, 1)
	if len(cands) == 0 {
		return Candidate{}, false, nil
	}
	c := cands[0]
	cluster := sn.Med.PMed.Schemas[c.SchemaIdx].Attrs[c.MedIdx]
	confirmed := s.Oracle.Correct(c.Source, c.SrcAttr, cluster)
	key := cluster.Key()
	for l, m := range sn.Med.PMed.Schemas {
		for j, a := range m.Attrs {
			if a.Key() != key {
				continue
			}
			if err := s.Sys.SubmitFeedback(core.Feedback{Source: c.Source, SchemaIdx: l, SrcAttr: c.SrcAttr, MedIdx: j, Confirmed: confirmed}); err != nil {
				return c, false, fmt.Errorf("feedback: %w", err)
			}
			s.asked[candidateKey(c.Source, l, c.SrcAttr, j)] = true
		}
	}
	s.Applied++
	return c, true, nil
}

// Run applies up to n feedback steps, stopping early when nothing is
// uncertain anymore. It returns the number of steps applied.
func (s *Session) Run(n int) (int, error) {
	applied := 0
	for i := 0; i < n; i++ {
		_, ok, err := s.Step()
		if err != nil {
			return applied, err
		}
		if !ok {
			break
		}
		applied++
	}
	return applied, nil
}

func candidateKey(source string, schemaIdx int, srcAttr string, medIdx int) string {
	return fmt.Sprintf("%s\x1f%d\x1f%s\x1f%d", source, schemaIdx, srcAttr, medIdx)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
