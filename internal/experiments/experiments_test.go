package experiments

import (
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
)

// Tests run on the People domain (the smallest) plus reduced clones of
// larger domains to keep runtimes reasonable.

var peopleRun *DomainRun

func people(t *testing.T) *DomainRun {
	t.Helper()
	if peopleRun == nil {
		r, err := Load(datagen.People(103))
		if err != nil {
			t.Fatal(err)
		}
		peopleRun = r
	}
	return peopleRun
}

// smallMovie clones the Movie spec with fewer sources for test speed.
func smallMovie(t *testing.T) *DomainRun {
	t.Helper()
	spec := datagen.Movie(101)
	spec.NumSources = 60
	r, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTable1(t *testing.T) {
	r := people(t)
	out := Table1([]*DomainRun{r})
	if !strings.Contains(out, "People") || !strings.Contains(out, "49") {
		t.Errorf("Table1 output missing expected fields:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	r := people(t)
	rows, out, err := Table2([]*DomainRun{r})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Standard != "golden" {
		t.Fatalf("Table2 rows = %+v", rows)
	}
	if rows[0].PRF.F < 0.8 {
		t.Errorf("People golden F = %.3f < 0.8", rows[0].PRF.F)
	}
	if !strings.Contains(out, "Table 2") {
		t.Errorf("missing title:\n%s", out)
	}
}

func TestTable2ApproxGolden(t *testing.T) {
	r := smallMovie(t)
	rows, _, err := Table2([]*DomainRun{r})
	if err != nil {
		t.Fatal(err)
	}
	var golden, approx *Table2Row
	for i := range rows {
		switch rows[i].Standard {
		case "golden":
			golden = &rows[i]
		case "approx-golden":
			approx = &rows[i]
		}
	}
	if golden == nil || approx == nil {
		t.Fatalf("rows = %+v", rows)
	}
	// The approximate golden standard only contains answers the system can
	// produce, so measured recall must not drop.
	if approx.PRF.Recall < golden.PRF.Recall-1e-9 {
		t.Errorf("approx recall %.3f below golden recall %.3f", approx.PRF.Recall, golden.PRF.Recall)
	}
}

func TestFig4Shape(t *testing.T) {
	r := people(t)
	rows, out, err := Fig4([]*DomainRun{r})
	if err != nil {
		t.Fatal(err)
	}
	byApproach := map[core.Approach]Fig4Row{}
	for _, row := range rows {
		byApproach[row.Approach] = row
	}
	udi := byApproach[core.UDI].PRF
	for _, a := range []core.Approach{KeywordNaive, KeywordStruct, KeywordStrict, SourceOnly, TopMapping} {
		if byApproach[a].PRF.F >= udi.F {
			t.Errorf("%s F %.3f >= UDI F %.3f", a, byApproach[a].PRF.F, udi.F)
		}
	}
	if !strings.Contains(out, "Figure 4") {
		t.Errorf("missing title:\n%s", out)
	}
}

func TestFig5Shape(t *testing.T) {
	r := people(t)
	rows, _, err := Fig5([]*DomainRun{r})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[core.Approach]Fig5Row{}
	for _, row := range rows {
		byName[row.Variant] = row
	}
	if byName["SingleMed"].PRF.Recall >= byName["UDI"].PRF.Recall {
		t.Errorf("SingleMed recall %.3f >= UDI recall %.3f",
			byName["SingleMed"].PRF.Recall, byName["UDI"].PRF.Recall)
	}
	if byName["UnionAll"].PRF.Recall >= byName["UDI"].PRF.Recall {
		t.Errorf("UnionAll recall %.3f >= UDI recall %.3f",
			byName["UnionAll"].PRF.Recall, byName["UDI"].PRF.Recall)
	}
	// UnionAll's ranking quality must not beat SingleMed's: not grouping
	// splits probability mass across singleton clusters.
	if byName["UnionAll"].AvgP > byName["SingleMed"].AvgP+1e-9 {
		t.Errorf("UnionAll R-P area %.3f above SingleMed %.3f",
			byName["UnionAll"].AvgP, byName["SingleMed"].AvgP)
	}
}

func TestFig6Dominance(t *testing.T) {
	r := smallMovie(t)
	curves, out, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %+v", curves)
	}
	// UDI's curve must dominate SingleMed's on average (Figure 6's claim).
	var udiSum, smSum float64
	for i := range curves[0].Points {
		udiSum += curves[0].Points[i].Precision
		smSum += curves[1].Points[i].Precision
	}
	if udiSum < smSum {
		t.Errorf("UDI curve (%f) below SingleMed (%f):\n%s", udiSum, smSum, out)
	}
}

func TestTable3(t *testing.T) {
	r := people(t)
	scores, out, err := Table3([]*DomainRun{r})
	if err != nil {
		t.Fatal(err)
	}
	s := scores["People"]
	// Paper Table 3 averages P=0.80, R=0.75. Our synthetic vocabulary is
	// cleaner, so require at least a similar floor and a ceiling below
	// perfection (the ambiguous generics prevent a perfect score).
	if s.Precision < 0.6 || s.Recall < 0.6 {
		t.Errorf("clustering quality too low: %+v\n%s", s, out)
	}
	if s.Precision > 0.999 && s.Recall > 0.999 {
		t.Errorf("clustering suspiciously perfect (ambiguity unmodelled): %+v", s)
	}
}

func TestFig7Scaling(t *testing.T) {
	spec := datagen.Car(102)
	spec.NumSources = 120
	r, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	points, out, err := Fig7(r, []int{40, 80, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %+v", points)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Sources <= points[i-1].Sources {
			t.Errorf("sources not increasing: %+v", points)
		}
	}
	if !strings.Contains(out, "Figure 7") {
		t.Errorf("missing title:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	spec := datagen.Bib(105)
	spec.NumSources = 80
	r, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "issn") || !strings.Contains(out, "issue") {
		t.Errorf("Figure 3 output missing issn/issue:\n%s", out)
	}
	// The p-med-schema must contain at least one schema separating issue
	// from issn and the separated one must come first (higher probability,
	// driven by co-occurrence consistency as in Example 4.2).
	sys, err := r.UDI()
	if err != nil {
		t.Fatal(err)
	}
	top := sys.Med.PMed.Schemas[0]
	if top.ClusterOf("issue").Contains("issn") {
		t.Errorf("most probable schema groups issue and issn:\n%s", sys.Med.PMed)
	}
}

func TestAblateAssignment(t *testing.T) {
	r := people(t)
	rows, out, err := AblateAssignment(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if !strings.Contains(out, "maxent") {
		t.Errorf("output:\n%s", out)
	}
	// Maxent must not be worse than uniform.
	if rows[0].PRF.F < rows[1].PRF.F-0.02 {
		t.Errorf("maxent F %.3f clearly below uniform F %.3f", rows[0].PRF.F, rows[1].PRF.F)
	}
}

func TestAblateParameters(t *testing.T) {
	r := people(t)
	rows, _, err := AblateParameters(r)
	if err != nil {
		t.Fatal(err)
	}
	base := rows[0].PRF.F
	for _, row := range rows[1:] {
		if row.PRF.F < base-0.2 {
			t.Errorf("config %q F %.3f far below default %.3f", row.Config, row.PRF.F, base)
		}
	}
}

func TestAblateSimilarity(t *testing.T) {
	if testing.Short() {
		t.Skip("similarity ablation builds four systems")
	}
	r := people(t)
	rows, _, err := AblateSimilarity(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %+v", rows)
	}
	// The default matcher should be at least as good as the alternates.
	for _, row := range rows[1:] {
		if row.PRF.F > rows[0].PRF.F+0.05 {
			t.Errorf("alternate %q F %.3f above default %.3f", row.Config, row.PRF.F, rows[0].PRF.F)
		}
	}
}

func TestQueryTimes(t *testing.T) {
	r := people(t)
	ms, err := QueryTimes(r)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Errorf("per-query time %f", ms)
	}
}

func TestPayAsYouGo(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 30
	r, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	points, out, err := PayAsYouGo(r, []int{15, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("points = %+v", points)
	}
	first, last := points[0], points[len(points)-1]
	if last.PRF.F <= first.PRF.F {
		t.Errorf("feedback did not improve F: %.3f -> %.3f\n%s", first.PRF.F, last.PRF.F, out)
	}
	if last.PRF.Recall < first.PRF.Recall {
		t.Errorf("feedback reduced recall: %.3f -> %.3f", first.PRF.Recall, last.PRF.Recall)
	}
}

func TestAblateInstanceMatcher(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 30
	r, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := AblateInstanceMatcher(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	base, hybrid := rows[0].PRF, rows[1].PRF
	if hybrid.Recall <= base.Recall {
		t.Errorf("instance matching did not lift recall: %.3f -> %.3f", base.Recall, hybrid.Recall)
	}
	if hybrid.Precision < base.Precision-0.02 {
		t.Errorf("instance matching cost precision: %.3f -> %.3f", base.Precision, hybrid.Precision)
	}
}

func TestAblateAggregation(t *testing.T) {
	r := people(t)
	rows, _, err := AblateAggregation(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// All three aggregations must stay within a tight band of each other
	// on this corpus (the probability differences do not change answer
	// sets — EXPERIMENTS.md A4).
	for _, row := range rows[1:] {
		if row.PRF.F < rows[0].PRF.F-0.05 {
			t.Errorf("%s F %.3f far below sum %.3f", row.Config, row.PRF.F, rows[0].PRF.F)
		}
	}
}
