package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"udi/internal/answer"
	"udi/internal/datagen"
	"udi/internal/eval"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

type answerTuple struct {
	Values []string
	Prob   float64
}

func asTuples(as []answer.Answer) []answerTuple {
	out := make([]answerTuple, len(as))
	for i, a := range as {
		out[i] = answerTuple{Values: a.Values, Prob: a.Prob}
	}
	return out
}

// peopleSystem builds the People corpus once per test binary; it is the
// smallest domain (49 sources) and exercises every mechanism (ambiguous
// generics, profiles, uncertain edges).
var peopleCache struct {
	corpus *datagen.Corpus
	sys    *System
	single *System
	union  *System
}

func peopleSystem(t *testing.T) (*datagen.Corpus, *System) {
	t.Helper()
	if peopleCache.sys == nil {
		peopleCache.corpus = datagen.MustGenerate(datagen.People(103))
		sys, err := Setup(peopleCache.corpus.Corpus, Config{})
		if err != nil {
			t.Fatal(err)
		}
		peopleCache.sys = sys
	}
	return peopleCache.corpus, peopleCache.sys
}

func singleMedSystem(t *testing.T) *System {
	t.Helper()
	c, _ := peopleSystem(t)
	if peopleCache.single == nil {
		sys, err := setupDeterministic(t, c.Corpus, mediate.SingleSchema)
		if err != nil {
			t.Fatal(err)
		}
		peopleCache.single = sys
	}
	return peopleCache.single
}

func unionAllSystem(t *testing.T) *System {
	t.Helper()
	c, _ := peopleSystem(t)
	if peopleCache.union == nil {
		sys, err := setupDeterministic(t, c.Corpus, mediate.UnionAll)
		if err != nil {
			t.Fatal(err)
		}
		peopleCache.union = sys
	}
	return peopleCache.union
}

// setupDeterministic sets a §7.4 variant up the way internal/experiments
// does: under the one mediated schema build returns, with probability 1.
func setupDeterministic(t *testing.T, c *schema.Corpus, build func(*schema.Corpus, mediate.Config) (*schema.MediatedSchema, error)) (*System, error) {
	t.Helper()
	m, err := build(c, mediate.Config{})
	if err != nil {
		return nil, err
	}
	pmed, err := schema.NewPMedSchema([]*schema.MediatedSchema{m}, []float64{1})
	if err != nil {
		return nil, err
	}
	return SetupUnder(c, Config{}, &mediate.Result{PMed: pmed})
}

func meanPRF(t *testing.T, c *datagen.Corpus, run func(q *sqlparse.Query) (*eval.PRF, error)) eval.PRF {
	t.Helper()
	var scores []eval.PRF
	for _, qs := range c.Domain.Queries {
		q := sqlparse.MustParse(qs)
		s, err := run(q)
		if err != nil {
			t.Fatalf("query %q: %v", qs, err)
		}
		scores = append(scores, *s)
	}
	return eval.Mean(scores)
}

func approachPRF(t *testing.T, c *datagen.Corpus, sys *System, a Approach) eval.PRF {
	t.Helper()
	return meanPRF(t, c, func(q *sqlparse.Query) (*eval.PRF, error) {
		g, err := c.GoldenAnswers(q)
		if err != nil {
			return nil, err
		}
		rs, err := sys.Run(a, q)
		if err != nil {
			return nil, err
		}
		s := eval.InstancePRF(rs.Instances, g, true)
		return &s, nil
	})
}

func TestSetupStructure(t *testing.T) {
	_, sys := peopleSystem(t)
	if sys.Med.PMed.Len() < 2 {
		t.Errorf("expected multiple possible mediated schemas, got %d", sys.Med.PMed.Len())
	}
	sum := 0.0
	for _, p := range sys.Med.PMed.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("schema probabilities sum to %f", sum)
	}
	// The paper notes (§6) that in practice the consolidated schema equals
	// the certain-edge components, which is also the §4.1 SingleMed schema
	// here (the uncertain edges all sit below τ).
	single := singleMedSystem(t)
	if !sys.Target.Equal(single.Med.PMed.Schemas[0]) {
		t.Errorf("consolidated schema differs from certain-edge clustering:\n%s\nvs\n%s",
			sys.Target, single.Med.PMed.Schemas[0])
	}
	if sys.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
	if len(sys.Snapshot().ConsMaps()) != len(sys.Corpus.Sources) {
		t.Errorf("consolidated %d of %d sources", len(sys.Snapshot().ConsMaps()), len(sys.Corpus.Sources))
	}
}

// Table 2's headline: the automatic system reaches high precision and
// recall against the golden standard.
func TestUDIQualityVsGolden(t *testing.T) {
	c, sys := peopleSystem(t)
	m := approachPRF(t, c, sys, UDI)
	if m.Precision < 0.85 {
		t.Errorf("UDI precision %.3f < 0.85", m.Precision)
	}
	if m.Recall < 0.75 {
		t.Errorf("UDI recall %.3f < 0.75", m.Recall)
	}
	if m.F < 0.8 {
		t.Errorf("UDI F %.3f < 0.8", m.F)
	}
}

// Figure 5's shape: the probabilistic mediated schema buys recall over
// SingleMed on ambiguous-attribute queries, and UnionAll loses recall by
// not grouping.
func TestUDIVsDeterministicSchemas(t *testing.T) {
	c, sys := peopleSystem(t)
	udi := approachPRF(t, c, sys, UDI)
	sm := approachPRF(t, c, singleMedSystem(t), UDI)
	ua := approachPRF(t, c, unionAllSystem(t), UDI)
	if sm.Recall >= udi.Recall-0.1 {
		t.Errorf("SingleMed recall %.3f not clearly below UDI %.3f", sm.Recall, udi.Recall)
	}
	if sm.F >= udi.F {
		t.Errorf("SingleMed F %.3f >= UDI F %.3f", sm.F, udi.F)
	}
	if ua.Recall >= udi.Recall {
		t.Errorf("UnionAll recall %.3f >= UDI %.3f", ua.Recall, udi.Recall)
	}
	if ua.Precision < 0.9 {
		t.Errorf("UnionAll precision %.3f < 0.9", ua.Precision)
	}
}

// Theorem 6.2 end to end: answers over the consolidated schema equal
// answers over the p-med-schema — on the real corpus, and on a
// telephone~tel corpus (two possible schemas) at every step of a fast
// AddSources and a fast RemoveSource, each of which shifts Pr(Mᵢ).
func TestConsolidatedEquivalenceEndToEnd(t *testing.T) {
	agree := func(label string, sys *System, queries []string, tol float64) {
		t.Helper()
		for _, qs := range queries {
			q := sqlparse.MustParse(qs)
			over, err := sys.QueryParsed(q)
			if err != nil {
				t.Fatal(err)
			}
			cons, err := sys.Run(Consolidated, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(over.Ranked) != len(cons.Ranked) {
				t.Fatalf("%s: %q: %d vs %d ranked answers", label, qs, len(over.Ranked), len(cons.Ranked))
			}
			// Compare as (tuple → probability) maps: probabilities agree to
			// floating-point noise, which can reorder exact ties.
			toMap := func(rs []answerTuple) map[string]float64 {
				out := make(map[string]float64, len(rs))
				for _, a := range rs {
					out[strings.Join(a.Values, "\x1f")] = a.Prob
				}
				return out
			}
			mo, mc := toMap(asTuples(over.Ranked)), toMap(asTuples(cons.Ranked))
			if len(mo) != len(mc) {
				t.Fatalf("%s: %q: distinct tuples differ: %d vs %d", label, qs, len(mo), len(mc))
			}
			for k, p := range mo {
				if q, ok := mc[k]; !ok || math.Abs(p-q) > tol {
					t.Errorf("%s: %q: tuple %q prob %v vs %v", label, qs, k, p, q)
				}
			}
		}
	}

	c, sys := peopleSystem(t)
	agree("People", sys, c.Domain.Queries[:5], 1e-6)

	var srcs []*schema.Source
	for i, attrs := range [][]string{
		{"telephone", "bravo"}, {"tel", "bravo"}, {"telephone", "tel", "bravo"}, {"telephone", "bravo"}, {"tel", "bravo"},
		{"tel", "telephone", "bravo"}, {"tel", "bravo"},
	} {
		row := make([]string, len(attrs))
		for j := range row {
			row[j] = fmt.Sprintf("v%d", (i+j)%3)
		}
		srcs = append(srcs, schema.MustNewSource(fmt.Sprintf("g%02d", i), attrs, [][]string{row}))
	}
	tel, err := Setup(mustCorpus(t, "tel", srcs[:5]), Config{Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Med.PMed.Len() < 2 {
		t.Fatalf("telephone~tel corpus has %d possible schemas, want an uncertain edge", tel.Med.PMed.Len())
	}
	queries := []string{"SELECT tel, bravo FROM t", "SELECT telephone, bravo FROM t", "SELECT tel FROM t"}
	agree("setup", tel, queries, 1e-12)
	for _, step := range []struct {
		label  string
		mutate func() (bool, error)
	}{
		{"add", func() (bool, error) { return tel.AddSources(srcs[5:]) }},
		{"remove", func() (bool, error) { return tel.RemoveSource("g01") }},
	} {
		probs := tel.Med.PMed.Probs
		fast, err := step.mutate()
		if err != nil {
			t.Fatal(err)
		}
		if !fast || reflect.DeepEqual(probs, tel.Med.PMed.Probs) {
			t.Fatalf("%s: fast=%v, Pr(M) %v -> %v; want a fast path that shifts Pr(M)", step.label, fast, probs, tel.Med.PMed.Probs)
		}
		agree(step.label, tel, queries, 1e-12)
	}
}

func TestRunUnknownApproach(t *testing.T) {
	_, sys := peopleSystem(t)
	if _, err := sys.Run("Nonsense", sqlparse.MustParse("SELECT name FROM t")); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestQueryParseError(t *testing.T) {
	_, sys := peopleSystem(t)
	if _, err := sys.Query("not sql"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestRepresentativeName(t *testing.T) {
	_, sys := peopleSystem(t)
	// "name" is the most frequent variant of its cluster.
	if r := sys.RepresentativeName("names"); r != "name" {
		t.Errorf("RepresentativeName(names) = %q", r)
	}
	if r := sys.RepresentativeName("unclustered-attr"); r != "unclustered-attr" {
		t.Errorf("RepresentativeName passthrough = %q", r)
	}
}

// Parameter robustness (§7.1: results stable under ±20% threshold
// variation).
func TestParameterRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep is slow")
	}
	c, _ := peopleSystem(t)
	base := approachPRF(t, c, peopleCache.sys, UDI)
	cfg := Config{}
	cfg.Mediate.Theta = 0.12
	cfg.Mediate.Eps = 0.024
	sys, err := Setup(c.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	varied := approachPRF(t, c, sys, UDI)
	if math.Abs(varied.F-base.F) > 0.15 {
		t.Errorf("F changed from %.3f to %.3f under 20%% parameter variation", base.F, varied.F)
	}
}

func TestExplainAnswerCore(t *testing.T) {
	c, sys := peopleSystem(t)
	q := sqlparse.MustParse(c.Domain.Queries[1])
	rs, err := sys.QueryParsed(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranked) == 0 {
		t.Fatal("no answers to explain")
	}
	contribs, err := sys.ExplainAnswer(q, rs.Ranked[0].Values)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) == 0 {
		t.Error("top answer has no provenance")
	}
	total := 0.0
	for _, cb := range contribs {
		if cb.Mass <= 0 {
			t.Errorf("non-positive mass %f", cb.Mass)
		}
		total += cb.Mass
	}
	if total <= 0 {
		t.Error("zero total mass")
	}
}

func TestRestoreRoundTripCore(t *testing.T) {
	c, sys := peopleSystem(t)
	restored, err := Restore(sys.Corpus, sys.Cfg, sys.Med, sys.Maps, sys.Target)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(c.Domain.Queries[0])
	a, err := sys.QueryParsed(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.QueryParsed(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ranked) != len(b.Ranked) {
		t.Errorf("restored system answers differ: %d vs %d", len(a.Ranked), len(b.Ranked))
	}
	// Restore validates its inputs.
	if _, err := Restore(sys.Corpus, sys.Cfg, nil, nil, nil); err == nil {
		t.Error("nil p-med-schema accepted")
	}
	if _, err := Restore(sys.Corpus, sys.Cfg, sys.Med, nil, sys.Target); err == nil {
		t.Error("missing p-mappings accepted")
	}
}

func TestSerialSetupEquivalent(t *testing.T) {
	c, sys := peopleSystem(t)
	serial, err := Setup(c.Corpus, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Med.PMed.Len() != sys.Med.PMed.Len() {
		t.Fatalf("schema counts differ: %d vs %d", serial.Med.PMed.Len(), sys.Med.PMed.Len())
	}
	q := sqlparse.MustParse(c.Domain.Queries[0])
	a, err := sys.QueryParsed(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serial.QueryParsed(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ranked) != len(b.Ranked) {
		t.Errorf("serial and parallel setups answer differently: %d vs %d", len(a.Ranked), len(b.Ranked))
	}
	for i := range a.Ranked {
		if math.Abs(a.Ranked[i].Prob-b.Ranked[i].Prob) > 1e-9 {
			t.Errorf("answer %d prob %f vs %f", i, a.Ranked[i].Prob, b.Ranked[i].Prob)
			break
		}
	}
}

func TestSubmitFeedbackCore(t *testing.T) {
	c, _ := peopleSystem(t)
	// Fresh system: feedback mutates state shared by other tests.
	sys, err := Setup(c.Corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var generic string
	for _, src := range sys.Corpus.Sources {
		if src.HasAttr("phone") {
			generic = src.Name
			break
		}
	}
	if generic == "" {
		t.Skip("no generic source in sample")
	}
	if err := sys.SubmitFeedback(Feedback{Source: generic, SrcAttr: "phone", MedName: "phone", Confirmed: true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitFeedback(Feedback{Source: generic, SrcAttr: "phone", MedName: "no-such-cluster-name", Confirmed: true}); err == nil {
		t.Error("unknown mediated name accepted")
	}
	if err := sys.SubmitFeedback(Feedback{Source: "ghost", SrcAttr: "phone", MedName: "phone", Confirmed: true}); err == nil {
		t.Error("unknown source accepted")
	}
}
