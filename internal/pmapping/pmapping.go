// Package pmapping constructs probabilistic schema mappings between a
// source schema and a mediated schema (paper §5):
//
//  1. weighted correspondences p_{i,j} = Σ_{a∈A_j} s(a_i, a), thresholded
//     (§5.1);
//  2. normalization by M′ = max of row/column sums so a consistent
//     p-mapping exists (Theorem 5.2);
//  3. decomposition of the bipartite correspondence graph into independent
//     groups ("group p-mappings" of Dong et al., cited in §5.2 to localize
//     the uncertainty);
//  4. per group, enumeration of every one-to-one (partial) mapping over the
//     group's correspondences and maximum-entropy probability assignment
//     (the OPT program of §5.2, solved by internal/maxent).
//
// The full p-mapping is the product distribution across groups; callers
// marginalize onto the mediated attributes a query touches rather than
// materializing the exponential product.
package pmapping

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"udi/internal/maxent"
	"udi/internal/schema"
	"udi/internal/strutil"
)

// Config tunes p-mapping construction.
type Config struct {
	// Sim is the pairwise attribute-name similarity (default
	// strutil.AttrSim).
	Sim strutil.Func
	// CorrThreshold zeroes raw correspondence weights below it (default
	// 0.85, per §7.1, chosen high to keep the maxent search small and the
	// retained correspondences mostly correct — §7.2 discusses both
	// effects).
	CorrThreshold float64
	// MaxMappingsPerGroup bounds the matchings enumerated inside one
	// group; when a group exceeds it, its lowest-weight correspondence is
	// dropped and enumeration retried (default 4096).
	MaxMappingsPerGroup int
	// Maxent tunes the entropy solver.
	Maxent maxent.Options
	// Assignment selects how probabilities are assigned to the enumerated
	// mappings: AssignMaxEnt (default, the paper's §5.2 OPT program) or
	// AssignUniform (ablation: uniform over mappings, ignoring the
	// correspondence weights).
	Assignment AssignStrategy
	// Aggregate selects how the qualifying pairwise similarities combine
	// into a cluster correspondence weight. The paper uses the sum
	// (footnote 1: "the sum of pairwise similarities looks at the cluster
	// as a whole") and mentions avg and max as alternatives; AggMax keeps
	// identity matches at weight 1 instead of letting near-duplicate
	// cluster members inflate the weight and drag every other
	// correspondence down through the M' normalization.
	Aggregate Aggregate
}

// Aggregate selects the cluster-weight aggregation of §5.1.
type Aggregate int

const (
	// AggSum sums qualifying pairwise similarities (the paper's choice).
	AggSum Aggregate = iota
	// AggMax takes the maximum qualifying similarity (footnote 1
	// alternative).
	AggMax
	// AggAvg averages the qualifying similarities (footnote 1
	// alternative).
	AggAvg
)

// AssignStrategy selects the probability-assignment strategy.
type AssignStrategy int

const (
	// AssignMaxEnt solves the maximum-entropy program of §5.2.
	AssignMaxEnt AssignStrategy = iota
	// AssignUniform distributes probability uniformly over the enumerated
	// mappings; an ablation baseline that discards correspondence weights.
	AssignUniform
)

func (c Config) withDefaults() Config {
	if c.Sim == nil {
		c.Sim = strutil.AttrSim
	}
	if c.CorrThreshold == 0 {
		c.CorrThreshold = 0.85
	}
	if c.MaxMappingsPerGroup == 0 {
		c.MaxMappingsPerGroup = 4096
	}
	return c
}

// Corr is one weighted correspondence between a source attribute and a
// mediated attribute (identified by its index in the mediated schema).
type Corr struct {
	SrcAttr string
	MedIdx  int
	Weight  float64 // normalized weight p'_{i,j}
}

func (c Corr) String() string {
	return fmt.Sprintf("(%s → A%d, %.3f)", c.SrcAttr, c.MedIdx, c.Weight)
}

// Group is an independent component of the correspondence graph together
// with its enumerated one-to-one mappings and their maxent probabilities.
type Group struct {
	Corrs []Corr
	// Mappings[k] lists indices into Corrs forming the k-th one-to-one
	// mapping (possibly empty: the mapping that maps nothing).
	Mappings [][]int
	Probs    []float64
}

// PMapping is a probabilistic one-to-one schema mapping between a source
// and a mediated schema, factored into independent groups.
type PMapping struct {
	SourceName string
	Med        *schema.MediatedSchema
	Groups     []Group
	// DroppedCorrs counts correspondences discarded to keep group
	// enumeration within bounds; nonzero values indicate the p-mapping is
	// an approximation.
	DroppedCorrs int
}

// Clone returns a deep copy of the p-mapping: feedback conditioning
// mutates groups in place, so sources sharing a schema-dedup cache entry
// each receive their own clone. Nil-versus-empty slice distinctions are
// preserved so a clone is reflect.DeepEqual to a fresh Build of the same
// schema (modulo SourceName). The mediated schema is shared — it is
// immutable after construction.
func (pm *PMapping) Clone() *PMapping {
	cp := &PMapping{SourceName: pm.SourceName, Med: pm.Med, DroppedCorrs: pm.DroppedCorrs}
	if pm.Groups != nil {
		cp.Groups = make([]Group, len(pm.Groups))
		for i, g := range pm.Groups {
			ng := Group{
				Corrs: cloneSlice(g.Corrs),
				Probs: cloneSlice(g.Probs),
			}
			if g.Mappings != nil {
				ng.Mappings = make([][]int, len(g.Mappings))
				for k, m := range g.Mappings {
					ng.Mappings[k] = cloneSlice(m)
				}
			}
			cp.Groups[i] = ng
		}
	}
	return cp
}

// cloneSlice copies a slice, preserving nil.
func cloneSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Build constructs the p-mapping between src and med per §5.
func Build(src *schema.Source, med *schema.MediatedSchema, cfg Config) (*PMapping, error) {
	cfg = cfg.withDefaults()
	return BuildCorrs(src.Name, med, WeightedCorrespondencesAgg(src, med, cfg.Sim, cfg.CorrThreshold, cfg.Aggregate), cfg)
}

// BuildCorrs constructs the p-mapping named name onto med from raw, a
// source's thresholded weighted correspondences: what
// WeightedCorrespondencesAgg returns for the source, or equally the
// AttrCorrs rows of its attributes joined in attribute order. It
// normalizes raw (§5.1), splits it into independent groups and solves
// each group (§5.2).
func BuildCorrs(name string, med *schema.MediatedSchema, raw []Corr, cfg Config) (*PMapping, error) {
	cfg = cfg.withDefaults()
	m := maxent.NewMetrics(cfg.Maxent.Obs) // one set of handles for every group's solve
	pm := &PMapping{SourceName: name, Med: med}
	groups := splitGroups(Normalize(raw))
	if len(groups) > 0 {
		pm.Groups = make([]Group, 0, len(groups))
	}
	for _, groupCorrs := range groups {
		g, dropped, err := solveGroup(groupCorrs, cfg, m)
		if err != nil {
			return nil, fmt.Errorf("pmapping: source %q: %w", name, err)
		}
		pm.DroppedCorrs += dropped
		pm.Groups = append(pm.Groups, g)
	}
	return pm, nil
}

// WeightedCorrespondences computes the thresholded raw weights of §5.1:
// p_{i,j} = Σ_{a∈A_j} s(a_i, a), where only pairwise similarities at or
// above the threshold contribute, and correspondences with no qualifying
// pair are dropped entirely. The paper applies a high threshold (0.85) "to
// reduce the number of correspondences considered in the entropy
// maximization" and attributes a recall loss to it (§7.2); thresholding
// the individual similarities — rather than the cluster sum — is what
// produces that behaviour: a source attribute reaches a cluster only if it
// is strongly similar to at least one member, not through many weak
// affinities.
func WeightedCorrespondences(src *schema.Source, med *schema.MediatedSchema, sim strutil.Func, threshold float64) []Corr {
	return WeightedCorrespondencesAgg(src, med, sim, threshold, AggSum)
}

// WeightedCorrespondencesAgg is WeightedCorrespondences with an explicit
// cluster-weight aggregation (see Aggregate).
func WeightedCorrespondencesAgg(src *schema.Source, med *schema.MediatedSchema, sim strutil.Func, threshold float64, agg Aggregate) []Corr {
	var out []Corr
	for _, ai := range src.Attrs {
		out = appendAttrCorrs(out, ai, med, func(j, k int) float64 { return sim(ai, med.Attrs[j][k]) }, threshold, agg)
	}
	return out
}

// AttrCorrs returns the raw correspondences of one source attribute onto
// med, in mediated-attribute order — its row of WeightedCorrespondencesAgg
// — given sim(j, k), the attribute's similarity to member k of mediated
// attribute j. cfg supplies the threshold and aggregate; its Sim is not
// read. A row depends only on the attribute and the clustering, so a
// caller may compute it once for every source holding the attribute.
func AttrCorrs(attr string, med *schema.MediatedSchema, sim func(j, k int) float64, cfg Config) []Corr {
	cfg = cfg.withDefaults()
	return appendAttrCorrs(nil, attr, med, sim, cfg.CorrThreshold, cfg.Aggregate)
}

// appendAttrCorrs appends the correspondences of source attribute ai.
func appendAttrCorrs(out []Corr, ai string, med *schema.MediatedSchema, sim func(j, k int) float64, threshold float64, agg Aggregate) []Corr {
	for j, Aj := range med.Attrs {
		w, n := 0.0, 0
		for k := range Aj {
			s := sim(j, k)
			if s < threshold {
				continue
			}
			n++
			switch agg {
			case AggMax:
				if s > w {
					w = s
				}
			default:
				w += s
			}
		}
		if n == 0 {
			continue
		}
		if agg == AggAvg {
			w /= float64(n)
		}
		out = append(out, Corr{SrcAttr: ai, MedIdx: j, Weight: w})
	}
	return out
}

// Normalize divides every weight by M′ = max(1, max row sum, max column
// sum) per Theorem 5.2, guaranteeing a consistent p-mapping exists. (The
// theorem's statement divides by M′ unconditionally; when every sum is
// already ≤ 1 that would inflate weights, so we clamp M′ at 1 — the
// conditions of the theorem hold either way.)
func Normalize(corrs []Corr) []Corr {
	rowSums := make(map[string]float64)
	colSums := make(map[int]float64)
	for _, c := range corrs {
		rowSums[c.SrcAttr] += c.Weight
		colSums[c.MedIdx] += c.Weight
	}
	mprime := 1.0
	for _, s := range rowSums {
		mprime = math.Max(mprime, s)
	}
	for _, s := range colSums {
		mprime = math.Max(mprime, s)
	}
	out := make([]Corr, len(corrs))
	for i, c := range corrs {
		c.Weight /= mprime
		out[i] = c
	}
	return out
}

// splitGroups partitions the correspondences into connected components of
// the bipartite graph whose vertices are source attributes and mediated
// attributes. The output is canonical: correspondences within a group are
// sorted (SrcAttr, MedIdx) and groups are ordered by their smallest
// correspondence, so the result depends only on the correspondence *set*,
// not on the order source attributes were listed in. The schema-dedup
// cache in core relies on this to share p-mappings across sources whose
// schemas are equal as sets.
func splitGroups(corrs []Corr) [][]Corr {
	n := len(corrs)
	// Union-find over dense vertex IDs: each distinct source attribute
	// and each distinct mediated index is one vertex, so at most 2n.
	ints := make([]int, 6*n)
	srcOf, parent, groupOf, sizes := ints[:n], ints[n:n:3*n], ints[3*n:5*n], ints[5*n:5*n]
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	srcIDs := make(map[string]int)
	medIDs := make(map[int]int)
	for i, c := range corrs {
		s, ok := srcIDs[c.SrcAttr]
		if !ok {
			s = len(parent)
			srcIDs[c.SrcAttr] = s
			parent = append(parent, s)
		}
		m, ok := medIDs[c.MedIdx]
		if !ok {
			m = len(parent)
			medIDs[c.MedIdx] = m
			parent = append(parent, m)
		}
		srcOf[i] = s
		if rs, rm := find(s), find(m); rs != rm {
			parent[rm] = rs
		}
	}
	// Number the groups in order of first appearance and size them, then
	// fill each group's share of one backing array in input order.
	for i := range groupOf {
		groupOf[i] = -1
	}
	for i := range corrs {
		r := find(srcOf[i])
		if groupOf[r] < 0 {
			groupOf[r] = len(sizes)
			sizes = append(sizes, 0)
		}
		srcOf[i] = groupOf[r]
		sizes[srcOf[i]]++
	}
	backing := make([]Corr, n)
	out := make([][]Corr, len(sizes))
	start := 0
	for g, size := range sizes {
		out[g] = backing[start : start : start+size]
		start += size
	}
	for i, c := range corrs {
		out[srcOf[i]] = append(out[srcOf[i]], c)
	}
	for _, g := range out {
		slices.SortFunc(g, compareCorrs)
	}
	// Sort groups by their smallest correspondence — the groups are
	// already internally sorted, so this order is input-order-free.
	slices.SortFunc(out, func(a, b []Corr) int { return compareCorrs(a[0], b[0]) })
	return out
}

// compareCorrs orders correspondences by (SrcAttr, MedIdx).
func compareCorrs(a, b Corr) int {
	if c := strings.Compare(a.SrcAttr, b.SrcAttr); c != 0 {
		return c
	}
	return cmp.Compare(a.MedIdx, b.MedIdx)
}

// solveGroup enumerates one-to-one mappings over the group's
// correspondences and fits the maxent distribution. If enumeration exceeds
// the cap, the lowest-weight correspondence is dropped and the group is
// re-enumerated; dropped counts how many were discarded.
func solveGroup(corrs []Corr, cfg Config, m *maxent.Metrics) (Group, int, error) {
	dropped := 0
	for {
		mappings := enumerateMatchings(corrs, cfg.MaxMappingsPerGroup)
		if mappings == nil {
			if len(corrs) == 0 {
				return Group{}, dropped, fmt.Errorf("cannot reduce group below zero correspondences")
			}
			// Drop the lowest-weight correspondence (deterministic
			// tie-break on attr/index) and retry.
			low := 0
			for i := 1; i < len(corrs); i++ {
				if corrs[i].Weight < corrs[low].Weight {
					low = i
				}
			}
			corrs = append(append([]Corr{}, corrs[:low]...), corrs[low+1:]...)
			dropped++
			continue
		}
		if cfg.Assignment == AssignUniform {
			probs := make([]float64, len(mappings))
			for i := range probs {
				probs[i] = 1 / float64(len(mappings))
			}
			return Group{Corrs: corrs, Mappings: mappings, Probs: probs}, dropped, nil
		}
		targets := make([]float64, len(corrs))
		for i, c := range corrs {
			targets[i] = c.Weight
		}
		probs, err := maxent.SolveWith(maxent.Problem{
			NumOutcomes: len(mappings),
			Features:    mappings,
			Targets:     targets,
		}, cfg.Maxent, m)
		if err != nil {
			return Group{}, dropped, err
		}
		return Group{Corrs: corrs, Mappings: mappings, Probs: probs}, dropped, nil
	}
}

// enumerateMatchings lists every subset of correspondence indices forming a
// one-to-one mapping (no source attribute or mediated attribute repeated),
// including the empty mapping. Returns nil if the count would exceed cap.
func enumerateMatchings(corrs []Corr, cap int) [][]int {
	// Dense vertex IDs for the attributes on both sides, so the search
	// marks them in one slice: correspondence i touches vertices srcOf[i]
	// and medOf[i].
	n := len(corrs)
	ids := make([]int, 2*n)
	srcOf, medOf := ids[:n], ids[n:]
	srcIDs := make(map[string]int)
	medIDs := make(map[int]int)
	for i, c := range corrs {
		s, ok := srcIDs[c.SrcAttr]
		if !ok {
			s = len(srcIDs) + len(medIDs)
			srcIDs[c.SrcAttr] = s
		}
		m, ok := medIDs[c.MedIdx]
		if !ok {
			m = len(srcIDs) + len(medIDs)
			medIDs[c.MedIdx] = m
		}
		srcOf[i], medOf[i] = s, m
	}
	used := make([]bool, len(srcIDs)+len(medIDs))
	var out [][]int
	var cur []int
	overflow := false
	var rec func(start int)
	rec = func(start int) {
		if overflow {
			return
		}
		m := make([]int, len(cur))
		copy(m, cur)
		out = append(out, m)
		if len(out) > cap {
			overflow = true
			return
		}
		for i := start; i < len(corrs); i++ {
			s, t := srcOf[i], medOf[i]
			if used[s] || used[t] {
				continue
			}
			used[s], used[t] = true, true
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			used[s], used[t] = false, false
		}
	}
	rec(0)
	if overflow {
		return nil
	}
	return out
}

// Assignment is one joint one-to-one mapping restricted to a list of
// mediated attributes, with the marginal probability of that
// restriction: SrcAttrs[i] is the source attribute the i-th requested
// mediated attribute corresponds to, "" when the mapping leaves it
// unmapped (a source attribute name is never empty).
type Assignment struct {
	SrcAttrs []string
	Prob     float64
}

// projection is one group's mappings restricted to the requested
// mediated attributes, aligned to them, with their summed probability.
type projection struct {
	attrs []string
	prob  float64
}

// AssignmentsFor returns the marginal distribution of mappings restricted
// to the given mediated-attribute indices, each assignment's SrcAttrs
// aligned to medIdxs (an index listed twice is resolved twice). Groups
// not touching any of the indices marginalize out; within a touching
// group, mappings with the same restriction merge, in the order first
// met. The result is the exact by-table marginal used for query
// rewriting.
func (pm *PMapping) AssignmentsFor(medIdxs []int) []Assignment {
	result := []Assignment{{SrcAttrs: make([]string, len(medIdxs)), Prob: 1}}
	var (
		projs []projection
		cur   = make([]string, len(medIdxs)) // scratch: one mapping's projection
	)
	for _, g := range pm.Groups {
		if !slices.ContainsFunc(g.Corrs, func(c Corr) bool { return slices.Contains(medIdxs, c.MedIdx) }) {
			continue
		}
		projs = projs[:0]
		for k, mapping := range g.Mappings {
			clear(cur)
			for _, ci := range mapping {
				c := g.Corrs[ci]
				for i, j := range medIdxs {
					if j == c.MedIdx {
						cur[i] = c.SrcAttr
					}
				}
			}
			if i := slices.IndexFunc(projs, func(p projection) bool { return slices.Equal(p.attrs, cur) }); i >= 0 {
				projs[i].prob += g.Probs[k]
				continue
			}
			projs = append(projs, projection{attrs: slices.Clone(cur), prob: g.Probs[k]})
		}
		// Cross-product with the accumulated assignments, every combined
		// restriction a window of one array.
		next := make([]Assignment, 0, len(result)*len(projs))
		attrs := make([]string, 0, cap(next)*len(medIdxs))
		for _, r := range result {
			for _, p := range projs {
				if p.prob == 0 {
					continue
				}
				lo := len(attrs)
				attrs = append(attrs, r.SrcAttrs...)
				combined := attrs[lo:len(attrs):len(attrs)]
				for i, a := range p.attrs {
					if a != "" {
						combined[i] = a
					}
				}
				next = append(next, Assignment{SrcAttrs: combined, Prob: r.Prob * p.prob})
			}
		}
		result = next
	}
	return result
}

// TopMapping returns the highest-probability full mapping (the product of
// each group's most probable mapping — groups are independent, so the
// joint argmax factors) as a mediated-index → source-attribute assignment,
// with its probability. Ties break toward the earlier enumerated mapping.
func (pm *PMapping) TopMapping() (map[int]string, float64) {
	out := make(map[int]string)
	p := 1.0
	for _, g := range pm.Groups {
		best := 0
		for k := range g.Mappings {
			if g.Probs[k] > g.Probs[best] {
				best = k
			}
		}
		for _, ci := range g.Mappings[best] {
			c := g.Corrs[ci]
			out[c.MedIdx] = c.SrcAttr
		}
		p *= g.Probs[best]
	}
	return out, p
}

// NumFullMappings returns the number of full mappings in the product
// distribution, saturating at math.MaxInt64.
func (pm *PMapping) NumFullMappings() int64 {
	n := int64(1)
	for _, g := range pm.Groups {
		c := int64(len(g.Mappings))
		if c == 0 {
			continue
		}
		if n > math.MaxInt64/c {
			return math.MaxInt64
		}
		n *= c
	}
	return n
}

// MedSrc is one correspondence of an explicit mapping: mediated-attribute
// index Med maps to source attribute Src.
type MedSrc struct {
	Med int
	Src string
}

// FullMapping is one explicit one-to-one mapping with its probability.
// Groups partition the source attributes and mappings are one-to-one, so
// each Med index and each Src attribute appears at most once in Pairs.
type FullMapping struct {
	Pairs []MedSrc
	Prob  float64
}

// FullMappings materializes the product distribution across groups. It
// returns an error if the count exceeds limit; use AssignmentsFor for
// query answering instead.
func (pm *PMapping) FullMappings(limit int64) ([]FullMapping, error) {
	if n := pm.NumFullMappings(); n > limit {
		return nil, fmt.Errorf("pmapping: %d full mappings exceed limit %d", n, limit)
	}
	result := []FullMapping{{Prob: 1}}
	for _, g := range pm.Groups {
		// Materialize each group mapping's pair list once; the product
		// step below then only concatenates slices.
		gp := make([][]MedSrc, len(g.Mappings))
		for k, mapping := range g.Mappings {
			pairs := make([]MedSrc, len(mapping))
			for x, ci := range mapping {
				c := g.Corrs[ci]
				pairs[x] = MedSrc{Med: c.MedIdx, Src: c.SrcAttr}
			}
			gp[k] = pairs
		}
		next := make([]FullMapping, 0, len(result)*len(g.Mappings))
		for _, r := range result {
			for k := range g.Mappings {
				combined := make([]MedSrc, 0, len(r.Pairs)+len(gp[k]))
				combined = append(combined, r.Pairs...)
				combined = append(combined, gp[k]...)
				next = append(next, FullMapping{Pairs: combined, Prob: r.Prob * g.Probs[k]})
			}
		}
		result = next
	}
	return result, nil
}

// ConsistencyResidual reports the worst violation of Definition 5.1 over
// all groups: for each correspondence, |Σ_{m∋(i,j)} Pr(m) − p_{i,j}|.
func (pm *PMapping) ConsistencyResidual() float64 {
	worst := 0.0
	for _, g := range pm.Groups {
		for ci, c := range g.Corrs {
			total := 0.0
			for k, mapping := range g.Mappings {
				for _, idx := range mapping {
					if idx == ci {
						total += g.Probs[k]
						break
					}
				}
			}
			if d := math.Abs(total - c.Weight); d > worst {
				worst = d
			}
		}
	}
	return worst
}
