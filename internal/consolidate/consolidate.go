// Package consolidate implements §6 of the paper: collapsing a
// probabilistic mediated schema into a single deterministic mediated schema
// (Algorithm 3 — the coarsest refinement of the possible schemas) and
// consolidating the per-schema p-mappings into a single p-mapping of
// one-to-many mappings whose query answers are equivalent (Theorem 6.2).
package consolidate

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"udi/internal/pmapping"
	"udi/internal/schema"
)

// MaxMappings bounds the explicit mappings the production pipeline
// materializes per source schema when it consolidates. A source that
// exceeds it keeps only its factored per-schema p-mappings and goes
// unconsolidated; answering over the p-med-schema is unaffected (Theorem
// 6.2 makes the answers equal either way).
const MaxMappings int64 = 100000

// Schema implements Algorithm 3. Two attributes share a cluster in the
// result T iff they share a cluster in every M_i of the p-med-schema.
// Attributes absent from some M_i are treated as singletons there (the
// pipeline always feeds schemas over the same attribute set, so this is
// only a safeguard).
func Schema(pmed *schema.PMedSchema) (*schema.MediatedSchema, error) {
	return SchemaP(pmed, 1)
}

// SchemaP is Schema with the per-attribute signature computation split
// across up to workers goroutines. Signatures are independent per
// attribute and the final clustering is canonically sorted, so the result
// is identical at every worker count.
func SchemaP(pmed *schema.PMedSchema, workers int) (*schema.MediatedSchema, error) {
	if pmed.Len() == 0 {
		return nil, fmt.Errorf("consolidate: empty p-med-schema")
	}
	names := map[string]bool{}
	// clusterKey[i][name] is the cluster identity of name in schema M_i —
	// one linear pass per schema, replacing the ClusterOf scan per
	// (attribute, schema) pair.
	clusterKey := make([]map[string]string, pmed.Len())
	for i, m := range pmed.Schemas {
		keys := make(map[string]string)
		for _, c := range m.Attrs {
			k := c.Key()
			for _, n := range c {
				keys[n] = k
				names[n] = true
			}
		}
		clusterKey[i] = keys
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	// Signature of an attribute: the tuple of cluster identities across
	// all M_i. Equal signatures <=> always clustered together.
	sigs := make([]string, len(sorted))
	signature := func(lo, hi int) {
		var b strings.Builder
		for x := lo; x < hi; x++ {
			n := sorted[x]
			b.Reset()
			for i := range pmed.Schemas {
				if i > 0 {
					b.WriteByte('\x1d')
				}
				if k, ok := clusterKey[i][n]; ok {
					b.WriteString(k)
					continue
				}
				b.WriteByte('\x00') // singleton placeholder
				b.WriteString(n)
			}
			sigs[x] = b.String()
		}
	}
	if workers > len(sorted) {
		workers = len(sorted)
	}
	if workers <= 1 {
		signature(0, len(sorted))
	} else {
		var wg sync.WaitGroup
		chunk := (len(sorted) + workers - 1) / workers
		for lo := 0; lo < len(sorted); lo += chunk {
			hi := lo + chunk
			if hi > len(sorted) {
				hi = len(sorted)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				signature(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	groups := map[string][]string{}
	for x, n := range sorted {
		groups[sigs[x]] = append(groups[sigs[x]], n)
	}
	clusters := make([]schema.MediatedAttr, 0, len(groups))
	for _, g := range groups {
		clusters = append(clusters, schema.NewMediatedAttr(g...))
	}
	return schema.NewMediatedSchema(clusters)
}

// OneToMany is a single one-to-many schema mapping into the consolidated
// schema T: a source attribute maps to a set of T attributes (step 1 of
// the consolidation replaces (a, A) by every (a, B) with B ⊆ A).
type OneToMany struct {
	// SrcToMed maps a source attribute to the sorted indices of the T
	// attributes it corresponds to.
	SrcToMed map[string][]int
	Prob     float64
}

// key canonicalizes the mapping for step-3 merging.
func (m OneToMany) key() string {
	attrs := make([]string, 0, len(m.SrcToMed))
	for a := range m.SrcToMed {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	var b []byte
	for _, a := range attrs {
		b = append(b, a...)
		b = append(b, '=')
		for _, j := range m.SrcToMed[a] {
			b = strconv.AppendInt(b, int64(j), 10)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	return string(b)
}

// MedToSrc inverts the mapping: each T attribute index corresponds to at
// most one source attribute (a T cluster refines exactly one M_i cluster,
// which maps one-to-one), so the inversion is well defined.
func (m OneToMany) MedToSrc() map[int]string {
	out := make(map[int]string)
	for a, idxs := range m.SrcToMed {
		for _, j := range idxs {
			out[j] = a
		}
	}
	return out
}

// PMapping is the consolidated probabilistic mapping between one source and
// the consolidated schema T.
type PMapping struct {
	SourceName string
	Target     *schema.MediatedSchema
	Mappings   []OneToMany
}

// Consolidator precomputes the schema-refinement tables shared by every
// source's consolidation against one (p-med-schema, target) pair. The
// pipeline consolidates hundreds of sources against the same pair, so
// hoisting the refinement out of the per-source call removes the
// dominant repeated work (cluster scans and key construction).
type Consolidator struct {
	pmed   *schema.PMedSchema
	target *schema.MediatedSchema
	// refine[i] maps a mediated-attribute index of M_i to the sorted T
	// indices contained in it.
	refine []map[int][]int
}

// NewConsolidator builds the refinement tables for one (pmed, target)
// pair.
func NewConsolidator(pmed *schema.PMedSchema, target *schema.MediatedSchema) *Consolidator {
	refine := make([]map[int][]int, pmed.Len())
	for i, m := range pmed.Schemas {
		r := make(map[int][]int)
		for ti, tAttr := range target.Attrs {
			// Find the M_i cluster containing this T cluster (all its
			// names are together in every M_i by construction).
			c := m.ClusterOf(tAttr[0])
			if c == nil {
				continue
			}
			key := c.Key()
			for mi, mAttr := range m.Attrs {
				if mAttr.Key() == key {
					r[mi] = append(r[mi], ti)
					break
				}
			}
		}
		for mi := range r {
			sort.Ints(r[mi])
		}
		refine[i] = r
	}
	return &Consolidator{pmed: pmed, target: target, refine: refine}
}

// ConsolidateMappings implements the three-step consolidation of §6 for
// one source: pms[i] is the p-mapping between the source and pmed.Schemas[i].
//
//  1. Rewrite each possible mapping of pms[i] into T-space: a correspondence
//     to mediated attribute A becomes correspondences to every T attribute
//     B ⊆ A.
//  2. Scale each mapping's probability by Pr(M_i).
//  3. Merge identical mappings, summing probabilities.
//
// maxMappings bounds the materialized product distribution per schema
// (p-mappings factor into groups; consolidation needs explicit mappings).
func ConsolidateMappings(pmed *schema.PMedSchema, target *schema.MediatedSchema, pms []*pmapping.PMapping, maxMappings int64) (*PMapping, error) {
	return NewConsolidator(pmed, target).Consolidate(pms, maxMappings)
}

// Consolidate runs the per-source consolidation against the precomputed
// refinement tables.
func (co *Consolidator) Consolidate(pms []*pmapping.PMapping, maxMappings int64) (*PMapping, error) {
	pmed, target, refine := co.pmed, co.target, co.refine
	if len(pms) != pmed.Len() {
		return nil, fmt.Errorf("consolidate: %d p-mappings for %d schemas", len(pms), pmed.Len())
	}
	merged := map[string]*OneToMany{}
	var order []string
	srcName := ""
	for i, pm := range pms {
		if pm == nil {
			return nil, fmt.Errorf("consolidate: nil p-mapping for schema %d", i)
		}
		srcName = pm.SourceName
		full, err := pm.FullMappings(maxMappings)
		if err != nil {
			return nil, fmt.Errorf("consolidate: source %q schema %d: %w", pm.SourceName, i, err)
		}
		for _, fm := range full {
			// Step 1: rewrite into T-space. fm.Pairs maps M_i indices ->
			// source attributes.
			otm := OneToMany{SrcToMed: make(map[string][]int, len(fm.Pairs)), Prob: fm.Prob * pmed.Probs[i]}
			for _, p := range fm.Pairs {
				// One-to-one mappings and group-partitioned source attrs
				// mean each Src appears exactly once, so the T indices are
				// just a copy of the (already sorted) refinement list.
				otm.SrcToMed[p.Src] = append([]int(nil), refine[i][p.Med]...)
			}
			if otm.Prob == 0 {
				continue
			}
			// Step 3: merge identical mappings.
			k := otm.key()
			if ex, ok := merged[k]; ok {
				ex.Prob += otm.Prob
				continue
			}
			merged[k] = &otm
			order = append(order, k)
		}
	}
	sort.Strings(order)
	out := &PMapping{SourceName: srcName, Target: target}
	for _, k := range order {
		out.Mappings = append(out.Mappings, *merged[k])
	}
	return out, nil
}

// Clone returns a deep copy of the consolidated p-mapping, so a caller
// can edit mappings without touching a published one. The target schema
// is shared — it is immutable.
func (pm *PMapping) Clone() *PMapping {
	cp := &PMapping{SourceName: pm.SourceName, Target: pm.Target}
	if pm.Mappings != nil {
		cp.Mappings = make([]OneToMany, len(pm.Mappings))
		for i, m := range pm.Mappings {
			nm := OneToMany{Prob: m.Prob}
			if m.SrcToMed != nil {
				nm.SrcToMed = make(map[string][]int, len(m.SrcToMed))
				for a, idxs := range m.SrcToMed {
					if idxs == nil { // preserve nil-ness for DeepEqual with a fresh build
						nm.SrcToMed[a] = nil
						continue
					}
					out := make([]int, len(idxs))
					copy(out, idxs)
					nm.SrcToMed[a] = out
				}
			}
			cp.Mappings[i] = nm
		}
	}
	return cp
}

// TotalProb returns the probability mass of the consolidated p-mapping;
// §6 notes it must sum to 1.
func (pm *PMapping) TotalProb() float64 {
	s := 0.0
	for _, m := range pm.Mappings {
		s += m.Prob
	}
	return s
}
