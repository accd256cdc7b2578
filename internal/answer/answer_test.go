package answer

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"udi/internal/consolidate"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

func medSchema(clusters ...[]string) *schema.MediatedSchema {
	var attrs []schema.MediatedAttr
	for _, c := range clusters {
		attrs = append(attrs, schema.NewMediatedAttr(c...))
	}
	return schema.MustNewMediatedSchema(attrs)
}

func clusterIdx(m *schema.MediatedSchema, name string) int {
	for i, a := range m.Attrs {
		if a.Contains(name) {
			return i
		}
	}
	panic("no cluster for " + name)
}

// figure1Fixture reconstructs Example 2.1 / Figure 1 exactly: source
// S1(name, hPhone, hAddr, oPhone, oAddr) with Alice's tuple, p-med-schema
// M = {M3, M4} each with probability 0.5, and the p-mappings of Figure
// 1(a)/(b) — independent phone and address groups with probabilities
// 0.8 / 0.2 (so the four joint mappings get 0.64 / 0.16 / 0.16 / 0.04).
func figure1Fixture() (*schema.Corpus, PMedInput) {
	s1 := schema.MustNewSource("S1",
		[]string{"name", "hPhone", "hAddr", "oPhone", "oAddr"},
		[][]string{{"Alice", "123-4567", "123, A Ave.", "765-4321", "456, B Ave."}})
	corpus, _ := schema.NewCorpus("people", []*schema.Source{s1})

	m3 := medSchema([]string{"name"}, []string{"phone", "hPhone"}, []string{"oPhone"},
		[]string{"address", "hAddr"}, []string{"oAddr"})
	m4 := medSchema([]string{"name"}, []string{"phone", "oPhone"}, []string{"hPhone"},
		[]string{"address", "oAddr"}, []string{"hAddr"})
	pmed, err := schema.NewPMedSchema([]*schema.MediatedSchema{m3, m4}, []float64{0.5, 0.5})
	if err != nil {
		panic(err)
	}

	// pm builds the p-mapping for one schema: the "generic" mediated
	// attribute (phone/address cluster) receives the matching source
	// attribute with probability pStraight, or the swapped one with
	// 1-pStraight.
	pm := func(m *schema.MediatedSchema, genPhone, altPhone, genAddr, altAddr string) *pmapping.PMapping {
		phoneGen := clusterIdx(m, "phone")
		phoneAlt := clusterIdx(m, altPhone)
		addrGen := clusterIdx(m, "address")
		addrAlt := clusterIdx(m, altAddr)
		const pStraight = 0.8
		return &pmapping.PMapping{
			SourceName: "S1",
			Med:        m,
			Groups: []pmapping.Group{
				{
					Corrs:    []pmapping.Corr{{SrcAttr: "name", MedIdx: clusterIdx(m, "name"), Weight: 1}},
					Mappings: [][]int{{0}},
					Probs:    []float64{1},
				},
				{
					Corrs: []pmapping.Corr{
						{SrcAttr: genPhone, MedIdx: phoneGen, Weight: pStraight},
						{SrcAttr: altPhone, MedIdx: phoneAlt, Weight: pStraight},
						{SrcAttr: altPhone, MedIdx: phoneGen, Weight: 1 - pStraight},
						{SrcAttr: genPhone, MedIdx: phoneAlt, Weight: 1 - pStraight},
					},
					Mappings: [][]int{{0, 1}, {2, 3}},
					Probs:    []float64{pStraight, 1 - pStraight},
				},
				{
					Corrs: []pmapping.Corr{
						{SrcAttr: genAddr, MedIdx: addrGen, Weight: pStraight},
						{SrcAttr: altAddr, MedIdx: addrAlt, Weight: pStraight},
						{SrcAttr: altAddr, MedIdx: addrGen, Weight: 1 - pStraight},
						{SrcAttr: genAddr, MedIdx: addrAlt, Weight: 1 - pStraight},
					},
					Mappings: [][]int{{0, 1}, {2, 3}},
					Probs:    []float64{pStraight, 1 - pStraight},
				},
			},
		}
	}

	in := PMedInput{
		PMed: pmed,
		Maps: map[string][]*pmapping.PMapping{
			"S1": {
				pm(m3, "hPhone", "oPhone", "hAddr", "oAddr"),
				pm(m4, "oPhone", "hPhone", "oAddr", "hAddr"),
			},
		},
	}
	return corpus, in
}

func TestAnswerPMedFigure1(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name, phone, address FROM People")
	rs, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 4 {
		t.Fatalf("got %d ranked answers, want 4: %v", len(rs.Ranked), rs.Ranked)
	}
	// Figure 1's final answer distribution: the two correctly correlated
	// answers get 0.5*0.64 + 0.5*0.04 = 0.34 each; the two cross-correlated
	// answers get 0.5*0.16 + 0.5*0.16 = 0.16 each.
	byTuple := map[string]float64{}
	for _, a := range rs.Ranked {
		byTuple[a.Values[1]+"|"+a.Values[2]] = a.Prob
	}
	want := map[string]float64{
		"123-4567|123, A Ave.": 0.34,
		"765-4321|456, B Ave.": 0.34,
		"765-4321|123, A Ave.": 0.16,
		"123-4567|456, B Ave.": 0.16,
	}
	for k, w := range want {
		if math.Abs(byTuple[k]-w) > 1e-9 {
			t.Errorf("answer %s: prob %f, want %f", k, byTuple[k], w)
		}
	}
	// Ranking places the correlated answers first.
	if rs.Ranked[0].Prob < rs.Ranked[2].Prob {
		t.Error("ranking not descending")
	}
	if len(rs.Instances) != 4 {
		t.Errorf("got %d instances, want 4", len(rs.Instances))
	}
}

// Theorem 6.2: consolidating the Figure 1 fixture and answering over T must
// produce identical answers.
func TestConsolidatedEquivalence(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	target, err := consolidate.Schema(in.PMed)
	if err != nil {
		t.Fatal(err)
	}
	cpm, err := consolidate.ConsolidateMappings(in.PMed, target, in.Maps["S1"], 100000)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT name, phone, address FROM People",
		"SELECT phone FROM People",
		"SELECT name FROM People WHERE phone = '123-4567'",
		"SELECT address FROM People WHERE name LIKE 'A%'",
		"SELECT hPhone, oPhone FROM People",
	}
	for _, qs := range queries {
		q := sqlparse.MustParse(qs)
		over, err := e.AnswerPMed(in, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		cons, err := e.AnswerConsolidated(target, map[string]*consolidate.PMapping{"S1": cpm}, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if len(over.Ranked) != len(cons.Ranked) {
			t.Fatalf("%s: %d vs %d answers", qs, len(over.Ranked), len(cons.Ranked))
		}
		for i := range over.Ranked {
			if !reflect.DeepEqual(over.Ranked[i].Values, cons.Ranked[i].Values) ||
				math.Abs(over.Ranked[i].Prob-cons.Ranked[i].Prob) > 1e-9 {
				t.Errorf("%s: answer %d differs: %v vs %v", qs, i, over.Ranked[i], cons.Ranked[i])
			}
		}
	}
}

func TestAnswerPMedUnmappedAttributeSkips(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	// "salary" is mediated by no schema: no answers, no error.
	rs, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT salary FROM People"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 0 || len(rs.Instances) != 0 {
		t.Errorf("expected empty result, got %v", rs)
	}
}

func TestAnswerPMedMismatchedMaps(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	in.Maps["S1"] = in.Maps["S1"][:1]
	if _, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT name FROM People")); err == nil {
		t.Error("mismatched p-mapping count accepted")
	}
}

func TestCrossSourceDisjunction(t *testing.T) {
	// Two sources each containing the same tuple; per-source probability
	// p1 and p2 must combine to 1-(1-p1)(1-p2).
	s1 := schema.MustNewSource("s1", []string{"title"}, [][]string{{"X"}})
	s2 := schema.MustNewSource("s2", []string{"name"}, [][]string{{"X"}})
	corpus, _ := schema.NewCorpus("d", []*schema.Source{s1, s2})
	m := medSchema([]string{"title", "name"})
	pmed, _ := schema.NewPMedSchema([]*schema.MediatedSchema{m}, []float64{1})
	mkpm := func(src, attr string, p float64) *pmapping.PMapping {
		return &pmapping.PMapping{
			SourceName: src,
			Med:        m,
			Groups: []pmapping.Group{{
				Corrs:    []pmapping.Corr{{SrcAttr: attr, MedIdx: 0, Weight: p}},
				Mappings: [][]int{{}, {0}},
				Probs:    []float64{1 - p, p},
			}},
		}
	}
	in := PMedInput{
		PMed: pmed,
		Maps: map[string][]*pmapping.PMapping{
			"s1": {mkpm("s1", "title", 0.6)},
			"s2": {mkpm("s2", "name", 0.5)},
		},
	}
	e := NewEngine(corpus)
	rs, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT title FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 1 {
		t.Fatalf("Ranked = %v", rs.Ranked)
	}
	want := 1 - (1-0.6)*(1-0.5)
	if math.Abs(rs.Ranked[0].Prob-want) > 1e-9 {
		t.Errorf("combined prob = %f, want %f", rs.Ranked[0].Prob, want)
	}
	// Instances keep the per-source occurrences separate.
	if len(rs.Instances) != 2 {
		t.Errorf("instances = %v", rs.Instances)
	}
}

func TestWithinSourceDuplicateRowsSetSemantics(t *testing.T) {
	// Same tuple in two rows of one source under a single mapping with
	// probability 0.7: ranked probability must be 0.7 (once), not 1.4 or
	// 1-(1-0.7)^2.
	s1 := schema.MustNewSource("s1", []string{"title"}, [][]string{{"X"}, {"X"}})
	corpus, _ := schema.NewCorpus("d", []*schema.Source{s1})
	m := medSchema([]string{"title"})
	pmed, _ := schema.NewPMedSchema([]*schema.MediatedSchema{m}, []float64{1})
	in := PMedInput{
		PMed: pmed,
		Maps: map[string][]*pmapping.PMapping{
			"s1": {{
				SourceName: "s1",
				Med:        m,
				Groups: []pmapping.Group{{
					Corrs:    []pmapping.Corr{{SrcAttr: "title", MedIdx: 0, Weight: 0.7}},
					Mappings: [][]int{{}, {0}},
					Probs:    []float64{0.3, 0.7},
				}},
			}},
		},
	}
	e := NewEngine(corpus)
	rs, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT title FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 1 || math.Abs(rs.Ranked[0].Prob-0.7) > 1e-9 {
		t.Errorf("Ranked = %v, want single answer with prob 0.7", rs.Ranked)
	}
	if len(rs.Instances) != 2 {
		t.Errorf("want 2 instances, got %v", rs.Instances)
	}
	for _, inst := range rs.Instances {
		if math.Abs(inst.Prob-0.7) > 1e-9 {
			t.Errorf("instance prob = %f", inst.Prob)
		}
	}
}

func TestAnswerPMedWherePredicatesRewriting(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	// Predicate on phone: under M3's straight mapping phone→hPhone the
	// literal matches Alice's home phone; under swapped mappings it maps to
	// oPhone and fails.
	q := sqlparse.MustParse("SELECT name FROM People WHERE phone = '123-4567'")
	rs, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 1 || rs.Ranked[0].Values[0] != "Alice" {
		t.Fatalf("Ranked = %v", rs.Ranked)
	}
	// P = 0.5*(M3: straight 0.8) + 0.5*(M4: swapped 0.2) = 0.5.
	if math.Abs(rs.Ranked[0].Prob-0.5) > 1e-9 {
		t.Errorf("prob = %f, want 0.5", rs.Ranked[0].Prob)
	}
}

func BenchmarkAnswerPMedFigure1(b *testing.B) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name, phone, address FROM People")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AnswerPMed(in, q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExplainFigure1(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name, phone, address FROM People")
	// The correlated answer derives from two paths: M3's straight mapping
	// (0.5 * 0.8*0.8 = 0.32) and M4's doubly-swapped mapping
	// (0.5 * 0.2*0.2 = 0.02).
	contribs, err := e.Explain(in, q, []string{"Alice", "123-4567", "123, A Ave."})
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 2 {
		t.Fatalf("contributions = %v", contribs)
	}
	if math.Abs(contribs[0].Mass-0.32) > 1e-9 || math.Abs(contribs[1].Mass-0.02) > 1e-9 {
		t.Errorf("masses = %f, %f; want 0.32, 0.02", contribs[0].Mass, contribs[1].Mass)
	}
	total := contribs[0].Mass + contribs[1].Mass
	if math.Abs(total-0.34) > 1e-9 {
		t.Errorf("total mass %f != answer probability 0.34", total)
	}
	if contribs[0].Source != "S1" || len(contribs[0].Rows) != 1 || contribs[0].Rows[0] != 0 {
		t.Errorf("contribution provenance wrong: %+v", contribs[0])
	}
	if contribs[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestExplainNoSuchTuple(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name FROM People")
	contribs, err := e.Explain(in, q, []string{"Nobody"})
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 0 {
		t.Errorf("contributions for absent tuple: %v", contribs)
	}
}

func TestByTupleRanking(t *testing.T) {
	// Single-occurrence tuples: by-tuple equals by-table.
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	rs, err := e.AnswerPMed(in, sqlparse.MustParse("SELECT name, phone, address FROM People"))
	if err != nil {
		t.Fatal(err)
	}
	byTuple := rs.ByTupleRanking()
	if len(byTuple) != len(rs.Ranked) {
		t.Fatalf("by-tuple %d vs by-table %d answers", len(byTuple), len(rs.Ranked))
	}
	bt := map[string]float64{}
	for _, a := range byTuple {
		bt[strings.Join(a.Values, "|")] = a.Prob
	}
	for _, a := range rs.Ranked {
		got := bt[strings.Join(a.Values, "|")]
		if math.Abs(got-a.Prob) > 1e-9 {
			t.Errorf("single-occurrence tuple %v: by-tuple %f != by-table %f", a.Values, got, a.Prob)
		}
	}

	// Duplicate rows: by-tuple combines occurrences by disjunction.
	s := schema.MustNewSource("s", []string{"title"}, [][]string{{"X"}, {"X"}})
	c2, _ := schema.NewCorpus("d", []*schema.Source{s})
	m := medSchema([]string{"title"})
	pmed, _ := schema.NewPMedSchema([]*schema.MediatedSchema{m}, []float64{1})
	in2 := PMedInput{
		PMed: pmed,
		Maps: map[string][]*pmapping.PMapping{
			"s": {{
				SourceName: "s",
				Med:        m,
				Groups: []pmapping.Group{{
					Corrs:    []pmapping.Corr{{SrcAttr: "title", MedIdx: 0, Weight: 0.7}},
					Mappings: [][]int{{}, {0}},
					Probs:    []float64{0.3, 0.7},
				}},
			}},
		},
	}
	e2 := NewEngine(c2)
	rs2, err := e2.AnswerPMed(in2, sqlparse.MustParse("SELECT title FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	// By-table: 0.7 (one mapping covers both rows). By-tuple:
	// 1-(1-0.7)^2 = 0.91 (each row an independent chance).
	if math.Abs(rs2.Ranked[0].Prob-0.7) > 1e-9 {
		t.Errorf("by-table = %f", rs2.Ranked[0].Prob)
	}
	bt2 := rs2.ByTupleRanking()
	if math.Abs(bt2[0].Prob-0.91) > 1e-9 {
		t.Errorf("by-tuple = %f, want 0.91", bt2[0].Prob)
	}
}

// Property: by-tuple probabilities dominate by-table probabilities.
func TestByTupleDominates(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	for _, qs := range []string{
		"SELECT phone FROM People",
		"SELECT name FROM People",
		"SELECT address FROM People WHERE name LIKE '%'",
	} {
		rs, err := e.AnswerPMed(in, sqlparse.MustParse(qs))
		if err != nil {
			t.Fatal(err)
		}
		bt := map[string]float64{}
		for _, a := range rs.ByTupleRanking() {
			bt[strings.Join(a.Values, "|")] = a.Prob
		}
		for _, a := range rs.Ranked {
			if bt[strings.Join(a.Values, "|")] < a.Prob-1e-9 {
				t.Errorf("%s: tuple %v by-tuple %f < by-table %f", qs, a.Values,
					bt[strings.Join(a.Values, "|")], a.Prob)
			}
		}
	}
}

// Parallel evaluation must return exactly the serial results.
func TestParallelMatchesSerial(t *testing.T) {
	corpus, in := figure1Fixture()
	// Add more sources so parallelism actually engages.
	var extra []*schema.Source
	extra = append(extra, corpus.Sources...)
	for i := 0; i < 12; i++ {
		extra = append(extra, schema.MustNewSource(
			fmt.Sprintf("X%d", i), []string{"name", "hPhone"},
			[][]string{{fmt.Sprintf("P%d", i), fmt.Sprintf("555-%04d", i)}}))
		in.Maps[fmt.Sprintf("X%d", i)] = []*pmapping.PMapping{
			{SourceName: fmt.Sprintf("X%d", i), Med: in.PMed.Schemas[0], Groups: nil},
			{SourceName: fmt.Sprintf("X%d", i), Med: in.PMed.Schemas[1], Groups: nil},
		}
	}
	c2, err := schema.NewCorpus("people", extra)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT name, phone FROM People")

	serial := NewEngine(c2)
	serial.Parallelism = 1
	parallel := NewEngine(c2)
	parallel.Parallelism = 8

	rs1, err := serial.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := parallel.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs1.Instances, rs2.Instances) {
		t.Error("instances differ between serial and parallel evaluation")
	}
	if !reflect.DeepEqual(rs1.Ranked, rs2.Ranked) {
		t.Error("ranked answers differ between serial and parallel evaluation")
	}
}

// Cross-check: the contribution masses Explain reports for a tuple sum to
// that tuple's per-source probability in the result set's PerSource view.
func TestExplainMassMatchesPerSource(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name, phone, address FROM People")
	rs, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rs.Ranked {
		contribs, err := e.Explain(in, q, a.Values)
		if err != nil {
			t.Fatal(err)
		}
		bySource := map[string]float64{}
		for _, c := range contribs {
			bySource[c.Source] += c.Mass
		}
		for _, sp := range runMaps(rs) {
			want := sp.probs[TupleKey(a.Values)]
			if math.Abs(bySource[sp.source]-want) > 1e-9 {
				t.Errorf("tuple %v source %s: explain mass %f != per-source prob %f",
					a.Values, sp.source, bySource[sp.source], want)
			}
		}
	}
}

// A one-column answer whose value is the empty string ranks as [""], the
// tuple its own instances carry — not as a zero-column tuple.
func TestEmptyStringAnswerKeepsItsColumn(t *testing.T) {
	var sources []*schema.Source
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		sources = append(sources, schema.MustNewSource(name, []string{"make", "model"},
			[][]string{{"", "x"}}))
	}
	corpus, _ := schema.NewCorpus("Car", sources)
	target := medSchema([]string{"make"})
	maps := map[string]*consolidate.PMapping{}
	for _, src := range sources {
		maps[src.Name] = &consolidate.PMapping{SourceName: src.Name, Target: target,
			Mappings: []consolidate.OneToMany{{SrcToMed: map[string][]int{"make": {0}}, Prob: 1}}}
	}
	rs, err := NewEngine(corpus).AnswerConsolidated(target, maps, sqlparse.MustParse("SELECT make FROM Car"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 1 || !reflect.DeepEqual(rs.Ranked[0].Values, []string{""}) {
		t.Fatalf("Ranked = %#v, want one answer with Values [\"\"]", rs.Ranked)
	}
	for _, in := range rs.Instances {
		if !reflect.DeepEqual(in.Values, rs.Ranked[0].Values) {
			t.Errorf("instance %+v disagrees with ranked values %q", in, rs.Ranked[0].Values)
		}
	}
	if got := rs.ByTupleRanking(); len(got) != 1 || !reflect.DeepEqual(got[0].Values, []string{""}) {
		t.Errorf("ByTupleRanking = %#v", got)
	}
}
