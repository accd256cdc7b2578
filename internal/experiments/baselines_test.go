package experiments

import (
	"reflect"
	"testing"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/core"
	"udi/internal/eval"
	"udi/internal/mediate"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// Figure 4's shape on People(103), approach by approach: UDI beats
// TopMapping and every keyword variant; Source answers only from sources
// that literally hold the query attributes, so it has perfect precision
// but far lower recall.
func TestUDIVsBaselines(t *testing.T) {
	r := people(t)
	sys, err := r.UDI()
	if err != nil {
		t.Fatal(err)
	}
	score := func(a core.Approach) eval.PRF {
		t.Helper()
		prf, err := r.Score(sys, a)
		if err != nil {
			t.Fatal(err)
		}
		return prf
	}
	udi := score(core.UDI)
	for _, kv := range []core.Approach{KeywordNaive, KeywordStruct, KeywordStrict} {
		if kw := score(kv); kw.F >= udi.F {
			t.Errorf("%s F %.3f >= UDI F %.3f", kv, kw.F, udi.F)
		}
	}
	src := score(SourceOnly)
	if src.Precision < 0.999 {
		t.Errorf("Source precision %.3f < 1", src.Precision)
	}
	if src.Recall >= udi.Recall-0.2 {
		t.Errorf("Source recall %.3f not far below UDI %.3f", src.Recall, udi.Recall)
	}
	if top := score(TopMapping); top.F >= udi.F {
		t.Errorf("TopMapping F %.3f >= UDI F %.3f", top.F, udi.F)
	}
}

func TestAnswerSourceBaseline(t *testing.T) {
	s1 := schema.MustNewSource("s1", []string{"name", "phone"},
		[][]string{{"Alice", "111"}, {"Bob", "222"}})
	s2 := schema.MustNewSource("s2", []string{"name", "telephone"},
		[][]string{{"Carol", "333"}})
	corpus, _ := schema.NewCorpus("d", []*schema.Source{s1, s2})
	e := answer.NewEngine(corpus)
	rs, err := answerSource(e, corpus, sqlparse.MustParse("SELECT name FROM t WHERE phone = '111'"))
	if err != nil {
		t.Fatal(err)
	}
	// Only s1 has both attrs literally; Carol's source is skipped.
	if len(rs.Ranked) != 1 || rs.Ranked[0].Values[0] != "Alice" || rs.Ranked[0].Prob != 1 {
		t.Errorf("Source baseline = %v", rs.Ranked)
	}
	rs, err = answerSource(e, corpus, sqlparse.MustParse("SELECT name FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) != 3 {
		t.Errorf("full projection = %v", rs.Ranked)
	}
}

// TestAnswerTopMapping runs both arms of the baseline over Figure 1's
// source S1 (Alice's tuple) with the paper's M3 as the only schema and as
// the target: the best of a source's consolidated mappings, and — for a
// source whose consolidation was skipped — the top mapping of its
// p-mapping. Either way the straight mapping answers, with certainty.
func TestAnswerTopMapping(t *testing.T) {
	s1 := schema.MustNewSource("S1",
		[]string{"name", "hPhone", "hAddr", "oPhone", "oAddr"},
		[][]string{{"Alice", "123-4567", "123, A Ave.", "765-4321", "456, B Ave."}})
	corpus, _ := schema.NewCorpus("people", []*schema.Source{s1})
	m3 := schema.MustNewMediatedSchema([]schema.MediatedAttr{
		schema.NewMediatedAttr("name"), schema.NewMediatedAttr("phone", "hPhone"), schema.NewMediatedAttr("oPhone"),
		schema.NewMediatedAttr("address", "hAddr"), schema.NewMediatedAttr("oAddr")})
	pmed, err := schema.NewPMedSchema([]*schema.MediatedSchema{m3}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int {
		for i, a := range m3.Attrs {
			if a.Contains(name) {
				return i
			}
		}
		t.Fatalf("no cluster for %s", name)
		return -1
	}
	straight := map[string][]int{"name": {idx("name")}, "hPhone": {idx("phone")}, "hAddr": {idx("address")}}
	swapped := map[string][]int{"name": {idx("name")}, "oPhone": {idx("phone")}, "oAddr": {idx("address")}}
	pm := &pmapping.PMapping{SourceName: "S1", Med: m3, Groups: []pmapping.Group{{
		Corrs: []pmapping.Corr{
			{SrcAttr: "name", MedIdx: idx("name"), Weight: 1},
			{SrcAttr: "hPhone", MedIdx: idx("phone"), Weight: 0.8},
			{SrcAttr: "hAddr", MedIdx: idx("address"), Weight: 0.8},
			{SrcAttr: "oPhone", MedIdx: idx("phone"), Weight: 0.2},
			{SrcAttr: "oAddr", MedIdx: idx("address"), Weight: 0.2},
		},
		Mappings: [][]int{{0, 3, 4}, {0, 1, 2}},
		Probs:    []float64{0.2, 0.8},
	}}}
	cons := map[string]*consolidate.PMapping{"S1": {SourceName: "S1", Target: m3, Mappings: []consolidate.OneToMany{
		{SrcToMed: swapped, Prob: 0.16}, {SrcToMed: straight, Prob: 0.64}}}}

	q := sqlparse.MustParse("SELECT name, phone, address FROM People")
	want := []string{"Alice", "123-4567", "123, A Ave."}
	for arm, consMaps := range map[string]map[string]*consolidate.PMapping{"consolidated": cons, "fallback": {}} {
		sn := &core.Snapshot{Corpus: corpus, Med: &mediate.Result{PMed: pmed},
			Maps: map[string][]*pmapping.PMapping{"S1": {pm}}, Target: m3}
		rs, err := answerTopMapping(answer.NewEngine(corpus), sn, consMaps, q)
		if err != nil {
			t.Fatalf("%s: %v", arm, err)
		}
		if len(rs.Ranked) != 1 || !reflect.DeepEqual(rs.Ranked[0].Values, want) || rs.Ranked[0].Prob != 1 {
			t.Errorf("%s: TopMapping = %v, want %v with probability 1", arm, rs.Ranked, want)
		}
	}
}
