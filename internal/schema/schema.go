// Package schema defines the data model shared by every UDI component:
// data sources (single-table schemas with instances, per the paper's §3
// setting), corpora of sources from one domain, and mediated schemas
// (clusterings of source attribute names).
//
// Following the paper, an attribute is identified by its name: the set of
// all source attributes A is the union of the attribute names appearing in
// the sources, and a mediated attribute is a set of names. Source schemas
// are single tables; multi-table sources are future work in the paper (§9).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Source is one data source: a single-table schema plus its instance.
type Source struct {
	Name  string     // unique source identifier within a corpus
	Attrs []string   // column names, unique within the source
	Rows  [][]string // each row has exactly len(Attrs) values

	attrIdx map[string]int
}

// NewSource validates and builds a Source. It rejects duplicate attribute
// names, empty attribute names, and rows whose width differs from the
// schema.
func NewSource(name string, attrs []string, rows [][]string) (*Source, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: source name must be non-empty")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: source %q has no attributes", name)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema: source %q has an empty attribute name", name)
		}
		if _, dup := idx[a]; dup {
			return nil, fmt.Errorf("schema: source %q has duplicate attribute %q", name, a)
		}
		idx[a] = i
	}
	for r, row := range rows {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("schema: source %q row %d has %d values, want %d",
				name, r, len(row), len(attrs))
		}
	}
	return &Source{Name: name, Attrs: attrs, Rows: rows, attrIdx: idx}, nil
}

// MustNewSource is NewSource that panics on error; for tests and examples.
func MustNewSource(name string, attrs []string, rows [][]string) *Source {
	s, err := NewSource(name, attrs, rows)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrIndex returns the column position of attr, or -1 if absent.
func (s *Source) AttrIndex(attr string) int {
	if s.attrIdx == nil {
		s.attrIdx = make(map[string]int, len(s.Attrs))
		for i, a := range s.Attrs {
			s.attrIdx[a] = i
		}
	}
	if i, ok := s.attrIdx[attr]; ok {
		return i
	}
	return -1
}

// HasAttr reports whether the source schema contains attr.
func (s *Source) HasAttr(attr string) bool { return s.AttrIndex(attr) >= 0 }

// Corpus is a set of sources assumed to be roughly from the same domain.
type Corpus struct {
	Domain  string
	Sources []*Source
}

// NewCorpus validates source-name uniqueness and builds a Corpus.
func NewCorpus(domain string, sources []*Source) (*Corpus, error) {
	seen := make(map[string]bool, len(sources))
	for _, s := range sources {
		if seen[s.Name] {
			return nil, fmt.Errorf("schema: duplicate source name %q in corpus %q", s.Name, domain)
		}
		seen[s.Name] = true
	}
	return &Corpus{Domain: domain, Sources: sources}, nil
}

// AllAttrs returns the sorted union of attribute names across all sources
// (the set A of the paper).
func (c *Corpus) AllAttrs() []string {
	seen := make(map[string]bool)
	for _, s := range c.Sources {
		for _, a := range s.Attrs {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// AttrFrequency returns, for each attribute name, the fraction of sources
// whose schema contains it: f(a_j) = |{i : a_j ∈ S_i}| / n (Algorithm 1,
// step 2).
func (c *Corpus) AttrFrequency() map[string]float64 {
	counts := make(map[string]int)
	for _, s := range c.Sources {
		for _, a := range s.Attrs {
			counts[a]++
		}
	}
	n := float64(len(c.Sources))
	freqs := make(map[string]float64, len(counts))
	for a, k := range counts {
		freqs[a] = float64(k) / n
	}
	return freqs
}

// FrequentAttrs returns the sorted attribute names whose frequency is at
// least theta (Algorithm 1, step 3).
func (c *Corpus) FrequentAttrs(theta float64) []string {
	var out []string
	for a, f := range c.AttrFrequency() {
		if f >= theta {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Prefix returns a corpus containing only the first n sources; used for
// the setup-scaling experiment (Figure 7). If n exceeds the corpus size the
// whole corpus is returned.
func (c *Corpus) Prefix(n int) *Corpus {
	if n > len(c.Sources) {
		n = len(c.Sources)
	}
	return &Corpus{Domain: c.Domain, Sources: c.Sources[:n]}
}

// MediatedAttr is one attribute of a mediated schema: a set of source
// attribute names, stored sorted for canonical comparison.
type MediatedAttr []string

// NewMediatedAttr copies and sorts the names.
func NewMediatedAttr(names ...string) MediatedAttr {
	m := make(MediatedAttr, len(names))
	copy(m, names)
	sort.Strings(m)
	return m
}

// Contains reports whether the mediated attribute includes name.
func (m MediatedAttr) Contains(name string) bool {
	i := sort.SearchStrings(m, name)
	return i < len(m) && m[i] == name
}

// Key returns a canonical string identity for the attribute set.
func (m MediatedAttr) Key() string { return strings.Join(m, "\x1f") }

// String renders the cluster as {a, b, c}.
func (m MediatedAttr) String() string {
	return "{" + strings.Join(m, ", ") + "}"
}

// Equal reports set equality.
func (m MediatedAttr) Equal(o MediatedAttr) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// MediatedSchema is a deterministic mediated schema: a partition of a set
// of source attribute names into disjoint clusters, stored in canonical
// order (clusters sorted by their first element).
type MediatedSchema struct {
	Attrs []MediatedAttr
}

// NewMediatedSchema validates that the clusters are disjoint and non-empty
// and returns the schema in canonical order.
func NewMediatedSchema(attrs []MediatedAttr) (*MediatedSchema, error) {
	seen := make(map[string]bool)
	canon := make([]MediatedAttr, 0, len(attrs))
	for _, a := range attrs {
		if len(a) == 0 {
			return nil, fmt.Errorf("schema: empty mediated attribute")
		}
		sorted := NewMediatedAttr(a...)
		for _, name := range sorted {
			if seen[name] {
				return nil, fmt.Errorf("schema: attribute %q appears in two clusters", name)
			}
			seen[name] = true
		}
		canon = append(canon, sorted)
	}
	sort.Slice(canon, func(i, j int) bool { return canon[i][0] < canon[j][0] })
	return &MediatedSchema{Attrs: canon}, nil
}

// MustNewMediatedSchema panics on error; for tests and examples.
func MustNewMediatedSchema(attrs []MediatedAttr) *MediatedSchema {
	m, err := NewMediatedSchema(attrs)
	if err != nil {
		panic(err)
	}
	return m
}

// Clusters flattens the schema into its interchange form — one plain
// string slice per mediated attribute, in canonical order, sharing the
// attributes' backing arrays. It is the shape a clustering takes in
// snapshots, the shard journal, the shard RPC and /v1/schema. A nil
// schema has nil clusters.
func (m *MediatedSchema) Clusters() [][]string {
	if m == nil {
		return nil
	}
	out := make([][]string, len(m.Attrs))
	for i, a := range m.Attrs {
		out[i] = a
	}
	return out
}

// FromClusters is the validating inverse of Clusters: NewMediatedSchema
// over clusters read from outside the program. No clusters is no schema.
func FromClusters(clusters [][]string) (*MediatedSchema, error) {
	if len(clusters) == 0 {
		return nil, nil
	}
	attrs := make([]MediatedAttr, len(clusters))
	for i, c := range clusters {
		attrs[i] = c
	}
	return NewMediatedSchema(attrs)
}

// ClusterOf returns the mediated attribute containing name, or nil. A query
// attribute a is replaced by its cluster when answering (paper §3).
func (m *MediatedSchema) ClusterOf(name string) MediatedAttr {
	for _, a := range m.Attrs {
		if a.Contains(name) {
			return a
		}
	}
	return nil
}

// Names returns the sorted union of all clustered attribute names.
func (m *MediatedSchema) Names() []string {
	var out []string
	for _, a := range m.Attrs {
		out = append(out, a...)
	}
	sort.Strings(out)
	return out
}

// Key returns a canonical identity for the whole clustering, used to
// deduplicate mediated schemas produced from different uncertain-edge
// subsets (Algorithm 1, step 8).
func (m *MediatedSchema) Key() string {
	parts := make([]string, len(m.Attrs))
	for i, a := range m.Attrs {
		parts[i] = a.Key()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x1e")
}

// Equal reports whether two mediated schemas are the same clustering.
func (m *MediatedSchema) Equal(o *MediatedSchema) bool { return m.Key() == o.Key() }

// ConsistentWith reports whether the mediated schema is consistent with
// source s per Definition 4.1: no pair of attributes of s appears in the
// same cluster.
func (m *MediatedSchema) ConsistentWith(s *Source) bool {
	for _, cluster := range m.Attrs {
		n := 0
		for _, name := range cluster {
			if s.HasAttr(name) {
				n++
				if n > 1 {
					return false
				}
			}
		}
	}
	return true
}

// String renders the schema as a list of clusters.
func (m *MediatedSchema) String() string {
	parts := make([]string, len(m.Attrs))
	for i, a := range m.Attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// PMedSchema is a probabilistic mediated schema (Definition 3.1): a set of
// mediated schemas with probabilities in (0,1] summing to 1, each a
// different clustering.
type PMedSchema struct {
	Schemas []*MediatedSchema
	Probs   []float64
}

// NewPMedSchema validates Definition 3.1: probabilities in (0,1] summing to
// 1 (within tolerance) and pairwise-distinct clusterings.
func NewPMedSchema(schemas []*MediatedSchema, probs []float64) (*PMedSchema, error) {
	if len(schemas) == 0 || len(schemas) != len(probs) {
		return nil, fmt.Errorf("schema: need equal non-zero schemas (%d) and probs (%d)",
			len(schemas), len(probs))
	}
	sum := 0.0
	seen := make(map[string]bool)
	for i, p := range probs {
		// Both checks are written in the accepting form, so NaN fails them.
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("schema: probability %g out of (0,1]", p)
		}
		sum += p
		k := schemas[i].Key()
		if seen[k] {
			return nil, fmt.Errorf("schema: duplicate clustering in p-med-schema")
		}
		seen[k] = true
	}
	if !(sum >= 1-1e-6 && sum <= 1+1e-6) {
		return nil, fmt.Errorf("schema: probabilities sum to %g, want 1", sum)
	}
	return &PMedSchema{Schemas: schemas, Probs: probs}, nil
}

// Clusters flattens every possible schema (see MediatedSchema.Clusters).
func (p *PMedSchema) Clusters() [][][]string {
	out := make([][][]string, len(p.Schemas))
	for i, m := range p.Schemas {
		out[i] = m.Clusters()
	}
	return out
}

// PMedFromClusters is the validating inverse of PMedSchema.Clusters plus
// the probabilities: every clustering must be a non-empty partition and
// the whole must satisfy Definition 3.1.
func PMedFromClusters(schemas [][][]string, probs []float64) (*PMedSchema, error) {
	ms := make([]*MediatedSchema, len(schemas))
	for i, clusters := range schemas {
		m, err := FromClusters(clusters)
		if err != nil {
			return nil, fmt.Errorf("schema %d: %w", i, err)
		}
		if m == nil {
			return nil, fmt.Errorf("schema: schema %d has no clusters", i)
		}
		ms[i] = m
	}
	return NewPMedSchema(ms, probs)
}

// SameSequence reports whether two p-med-schemas list the same
// clusterings in the same order (probabilities ignored). P-mappings are
// indexed by that sequence, so it is what a mediation swap over held
// p-mappings must keep.
func (p *PMedSchema) SameSequence(o *PMedSchema) bool {
	if len(p.Schemas) != len(o.Schemas) {
		return false
	}
	for i := range p.Schemas {
		if p.Schemas[i] != o.Schemas[i] && p.Schemas[i].Key() != o.Schemas[i].Key() {
			return false
		}
	}
	return true
}

// Len returns the number of possible mediated schemas.
func (p *PMedSchema) Len() int { return len(p.Schemas) }

// String lists each schema with its probability.
func (p *PMedSchema) String() string {
	var b strings.Builder
	for i, m := range p.Schemas {
		fmt.Fprintf(&b, "P=%.3f  %s\n", p.Probs[i], m)
	}
	return b.String()
}
