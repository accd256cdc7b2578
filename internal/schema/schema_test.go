package schema

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource("", []string{"a"}, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSource("s", nil, nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewSource("s", []string{"a", "a"}, nil); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSource("s", []string{"a", ""}, nil); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewSource("s", []string{"a"}, [][]string{{"x", "y"}}); err == nil {
		t.Error("wide row accepted")
	}
	s, err := NewSource("s", []string{"a", "b"}, [][]string{{"1", "2"}})
	if err != nil {
		t.Fatalf("valid source rejected: %v", err)
	}
	if s.AttrIndex("b") != 1 || s.AttrIndex("z") != -1 {
		t.Error("AttrIndex wrong")
	}
	if !s.HasAttr("a") || s.HasAttr("c") {
		t.Error("HasAttr wrong")
	}
}

func TestAttrIndexLazyInit(t *testing.T) {
	// A Source built by literal (no attrIdx) must still resolve indexes.
	s := &Source{Name: "s", Attrs: []string{"x", "y"}}
	if s.AttrIndex("y") != 1 {
		t.Error("lazy index failed")
	}
}

func TestCorpusFrequency(t *testing.T) {
	c, err := NewCorpus("d", []*Source{
		MustNewSource("s1", []string{"name", "phone"}, nil),
		MustNewSource("s2", []string{"name", "addr"}, nil),
		MustNewSource("s3", []string{"name", "phone", "addr"}, nil),
		MustNewSource("s4", []string{"name"}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := c.AttrFrequency()
	if f["name"] != 1 || f["phone"] != 0.5 || f["addr"] != 0.5 {
		t.Errorf("frequencies wrong: %v", f)
	}
	fr := c.FrequentAttrs(0.6)
	if len(fr) != 1 || fr[0] != "name" {
		t.Errorf("FrequentAttrs(0.6) = %v", fr)
	}
	all := c.AllAttrs()
	want := []string{"addr", "name", "phone"}
	if strings.Join(all, ",") != strings.Join(want, ",") {
		t.Errorf("AllAttrs = %v", all)
	}
}

func TestCorpusDuplicateSource(t *testing.T) {
	_, err := NewCorpus("d", []*Source{
		MustNewSource("s", []string{"a"}, nil),
		MustNewSource("s", []string{"b"}, nil),
	})
	if err == nil {
		t.Error("duplicate source names accepted")
	}
}

func TestCorpusPrefix(t *testing.T) {
	c, _ := NewCorpus("d", []*Source{
		MustNewSource("s1", []string{"a"}, nil),
		MustNewSource("s2", []string{"a"}, nil),
	})
	if got := c.Prefix(1); len(got.Sources) != 1 {
		t.Errorf("Prefix(1) size = %d", len(got.Sources))
	}
	if got := c.Prefix(10); len(got.Sources) != 2 {
		t.Errorf("Prefix(10) size = %d", len(got.Sources))
	}
}

func TestMediatedAttr(t *testing.T) {
	a := NewMediatedAttr("phone", "hPhone", "oPhone")
	if !a.Contains("hPhone") || a.Contains("zap") {
		t.Error("Contains wrong")
	}
	b := NewMediatedAttr("oPhone", "phone", "hPhone")
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("order must not matter")
	}
	if a.Equal(NewMediatedAttr("phone")) {
		t.Error("different sizes equal")
	}
	if a.String() != "{hPhone, oPhone, phone}" {
		t.Errorf("String = %q", a.String())
	}
}

func TestMediatedSchemaValidation(t *testing.T) {
	if _, err := NewMediatedSchema([]MediatedAttr{{}}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := NewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("a", "b"), NewMediatedAttr("b", "c"),
	}); err == nil {
		t.Error("overlapping clusters accepted")
	}
	m, err := NewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("phone", "hPhone"), NewMediatedAttr("name"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ClusterOf("phone"); !got.Equal(NewMediatedAttr("hPhone", "phone")) {
		t.Errorf("ClusterOf(phone) = %v", got)
	}
	if m.ClusterOf("zap") != nil {
		t.Error("ClusterOf(zap) should be nil")
	}
	names := m.Names()
	if strings.Join(names, ",") != "hPhone,name,phone" {
		t.Errorf("Names = %v", names)
	}
}

func TestMediatedSchemaKeyCanonical(t *testing.T) {
	m1 := MustNewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("a", "b"), NewMediatedAttr("c"),
	})
	m2 := MustNewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("c"), NewMediatedAttr("b", "a"),
	})
	if !m1.Equal(m2) {
		t.Error("same clustering, different construction order, not Equal")
	}
	m3 := MustNewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("a"), NewMediatedAttr("b"), NewMediatedAttr("c"),
	})
	if m1.Equal(m3) {
		t.Error("different clusterings Equal")
	}
}

func TestConsistency(t *testing.T) {
	// Definition 4.1: M is consistent with S iff no two attrs of S share a
	// cluster in M.
	s := MustNewSource("s", []string{"issue", "issn"}, nil)
	together := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("issue", "issn")})
	apart := MustNewMediatedSchema([]MediatedAttr{
		NewMediatedAttr("issue"), NewMediatedAttr("issn"),
	})
	if together.ConsistentWith(s) {
		t.Error("grouping co-occurring attrs must be inconsistent")
	}
	if !apart.ConsistentWith(s) {
		t.Error("separating co-occurring attrs must be consistent")
	}
	// A schema mentioning attrs absent from S is vacuously consistent.
	other := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("x", "y")})
	if !other.ConsistentWith(s) {
		t.Error("unrelated schema must be consistent")
	}
}

func TestPMedSchemaValidation(t *testing.T) {
	m1 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a", "b")})
	m2 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a"), NewMediatedAttr("b")})
	if _, err := NewPMedSchema([]*MediatedSchema{m1, m2}, []float64{0.7, 0.3}); err != nil {
		t.Errorf("valid p-med-schema rejected: %v", err)
	}
	if _, err := NewPMedSchema(nil, nil); err == nil {
		t.Error("empty p-med-schema accepted")
	}
	if _, err := NewPMedSchema([]*MediatedSchema{m1, m2}, []float64{0.5, 0.4}); err == nil {
		t.Error("non-unit sum accepted")
	}
	if _, err := NewPMedSchema([]*MediatedSchema{m1, m2}, []float64{1.2, -0.2}); err == nil {
		t.Error("out-of-range probability accepted")
	}
	if _, err := NewPMedSchema([]*MediatedSchema{m1, m1}, []float64{0.5, 0.5}); err == nil {
		t.Error("duplicate clustering accepted")
	}
}

// TestPMedSchemaRefusesNaN: a NaN probability fails both range checks,
// whether it is the only one or sits beside a valid one.
func TestPMedSchemaRefusesNaN(t *testing.T) {
	m1 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a", "b")})
	m2 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a"), NewMediatedAttr("b")})
	nan := math.NaN()
	if _, err := PMedFromClusters([][][]string{{{"a"}}}, []float64{nan}); err == nil {
		t.Error("one schema with a NaN probability accepted")
	}
	for _, probs := range [][]float64{{nan, 1}, {1, nan}, {nan, nan}} {
		if _, err := NewPMedSchema([]*MediatedSchema{m1, m2}, probs); err == nil {
			t.Errorf("two schemas with probabilities %v accepted", probs)
		}
	}
}

func TestSameSequence(t *testing.T) {
	m1 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a", "b")})
	m2 := MustNewMediatedSchema([]MediatedAttr{NewMediatedAttr("a"), NewMediatedAttr("b")})
	p, _ := NewPMedSchema([]*MediatedSchema{m1, m2}, []float64{0.7, 0.3})
	q, _ := NewPMedSchema([]*MediatedSchema{m1, m2}, []float64{0.4, 0.6})
	r, _ := NewPMedSchema([]*MediatedSchema{m2, m1}, []float64{0.3, 0.7})
	one, _ := NewPMedSchema([]*MediatedSchema{m1}, []float64{1})
	if !p.SameSequence(q) {
		t.Error("same clusterings in the same order, other probabilities: not the same sequence")
	}
	if p.SameSequence(r) || p.SameSequence(one) {
		t.Error("a reordered or shorter sequence counts as the same")
	}
}

// Property: ClusterOf finds every name in a randomly generated partition,
// and distinct names map to the same cluster iff they were placed together.
func TestClusterOfProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		// Random partition.
		k := 1 + rng.Intn(n)
		buckets := make([][]string, k)
		assign := make(map[string]int)
		for i, name := range names {
			b := i % k // ensure no empty bucket for first k names
			if i >= k {
				b = rng.Intn(k)
			}
			buckets[b] = append(buckets[b], name)
			assign[name] = b
		}
		var attrs []MediatedAttr
		for _, b := range buckets {
			if len(b) > 0 {
				attrs = append(attrs, NewMediatedAttr(b...))
			}
		}
		m := MustNewMediatedSchema(attrs)
		for _, name := range names {
			c := m.ClusterOf(name)
			if c == nil || !c.Contains(name) {
				return false
			}
			for _, other := range names {
				same := m.ClusterOf(other).Key() == c.Key()
				if same != (assign[other] == assign[name]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
