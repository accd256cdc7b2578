package feedback

import (
	"math"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/eval"
	"udi/internal/sqlparse"
)

func buildSystem(t *testing.T) (*datagen.Corpus, *core.System) {
	t.Helper()
	spec := datagen.People(103)
	spec.NumSources = 30
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c, sys
}

func TestGoldenOracle(t *testing.T) {
	c, _ := buildSystem(t)
	oracle := &GoldenOracle{Corpus: c}
	// Find a generic source (attr "phone") and a specific source.
	for _, src := range c.Corpus.Sources {
		for attr, concept := range c.AttrConcept[src.Name] {
			switch concept {
			case "home-phone":
				if !oracle.Correct(src.Name, attr, []string{"hm-phone"}) {
					t.Errorf("home phone attr %q should match hm-phone cluster", attr)
				}
				if oracle.Correct(src.Name, attr, []string{"o-phone"}) {
					t.Errorf("home phone attr %q should not match office cluster", attr)
				}
				// A cluster containing the generic name covers both
				// concepts of the family.
				if !oracle.Correct(src.Name, attr, []string{"phone"}) {
					t.Errorf("home phone attr %q should match generic phone cluster", attr)
				}
			case "person-name":
				if !oracle.Correct(src.Name, attr, []string{"name"}) {
					t.Errorf("name attr %q should match name cluster", attr)
				}
				if oracle.Correct(src.Name, attr, []string{"job"}) {
					t.Errorf("name attr %q should not match job cluster", attr)
				}
			}
		}
	}
	if oracle.Correct("nope", "x", []string{"name"}) {
		t.Error("unknown source accepted")
	}
}

func TestCandidatesRanked(t *testing.T) {
	_, sys := buildSystem(t)
	sess := NewSession(sys, nil)
	cands := sess.Candidates(20)
	if len(cands) == 0 {
		t.Fatal("no uncertain correspondences found")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Uncertainty > cands[i-1].Uncertainty+1e-12 {
			t.Fatalf("candidates not sorted by uncertainty: %f then %f",
				cands[i-1].Uncertainty, cands[i].Uncertainty)
		}
	}
	for _, c := range cands {
		// Marginal 0 marks unmapped-attribute proposals (the instance-based
		// signal); existing correspondences must be genuinely uncertain.
		if c.Marginal < 0 || c.Marginal >= 1 {
			t.Errorf("candidate with decided marginal %f listed", c.Marginal)
		}
	}
}

func TestStepReducesEntropyAndUncertainty(t *testing.T) {
	c, sys := buildSystem(t)
	sess := NewSession(sys, &GoldenOracle{Corpus: c})
	before := totalEntropy(sys)
	cand, ok, err := sess.Step()
	if err != nil || !ok {
		t.Fatalf("step failed: %v ok=%v", err, ok)
	}
	after := totalEntropy(sys)
	if after >= before {
		t.Errorf("entropy did not drop: %f -> %f", before, after)
	}
	// The asked correspondence must now be decided (0 or 1) in that
	// schema's p-mapping.
	m := sys.Maps[cand.Source][cand.SchemaIdx].MarginalProb(cand.SrcAttr, cand.MedIdx)
	if m > 1e-9 && m < 1-1e-9 {
		t.Errorf("asked correspondence still uncertain: %f", m)
	}
}

func totalEntropy(sys *core.System) float64 {
	h := 0.0
	for _, pms := range sys.Maps {
		for _, pm := range pms {
			h += pm.Entropy()
		}
	}
	return h
}

// The headline pay-as-you-go claim: feedback improves query quality over
// the no-intervention starting point.
func TestFeedbackImprovesQuality(t *testing.T) {
	c, sys := buildSystem(t)
	score := func() eval.PRF {
		var scores []eval.PRF
		for _, qs := range c.Domain.Queries {
			q := sqlparse.MustParse(qs)
			g, err := c.GoldenAnswers(q)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := sys.QueryParsed(q)
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, eval.InstancePRF(rs.Instances, g, true))
		}
		return eval.Mean(scores)
	}
	before := score()
	sess := NewSession(sys, &GoldenOracle{Corpus: c})
	applied, err := sess.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("no feedback applied")
	}
	after := score()
	if after.F < before.F+0.01 {
		t.Errorf("feedback should improve quality: F %.3f -> %.3f", before.F, after.F)
	}
	if after.Recall < before.Recall {
		t.Errorf("feedback reduced recall: %.3f -> %.3f", before.Recall, after.Recall)
	}
	t.Logf("F %.3f -> %.3f after %d feedback items", before.F, after.F, applied)
}

func TestRunStopsWhenDecided(t *testing.T) {
	c, sys := buildSystem(t)
	sess := NewSession(sys, &GoldenOracle{Corpus: c})
	applied, err := sess.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("nothing applied")
	}
	// After exhausting candidates, no uncertainty remains.
	if cands := sess.Candidates(1); len(cands) != 0 {
		t.Errorf("candidates remain after exhaustive run: %+v", cands)
	}
	_ = c
}

func TestSubmitFeedbackErrors(t *testing.T) {
	_, sys := buildSystem(t)
	if err := sys.SubmitFeedback(core.Feedback{Source: "nope", SchemaIdx: 0, SrcAttr: "a", MedIdx: 0, Confirmed: true}); err == nil {
		t.Error("unknown source accepted")
	}
	if err := sys.SubmitFeedback(core.Feedback{Source: sys.Corpus.Sources[0].Name, SchemaIdx: 999, SrcAttr: "a", MedIdx: 0, Confirmed: true}); err == nil {
		t.Error("bad schema index accepted")
	}
	if err := sys.SubmitFeedback(core.Feedback{Source: sys.Corpus.Sources[0].Name, SchemaIdx: 0, SrcAttr: "a", MedIdx: 999, Confirmed: true}); err == nil {
		t.Error("bad mediated index accepted")
	}
	if err := sys.SubmitFeedback(core.Feedback{Source: sys.Corpus.Sources[0].Name, SrcAttr: "a", MedName: "not-an-attr", Confirmed: true}); err == nil {
		t.Error("unknown mediated name accepted")
	}
}

func TestSubmitFeedbackByName(t *testing.T) {
	c, sys := buildSystem(t)
	// Find a generic source and confirm its phone column against the
	// generic cluster name.
	for _, src := range c.Corpus.Sources {
		if src.HasAttr("phone") {
			if err := sys.SubmitFeedback(core.Feedback{Source: src.Name, SrcAttr: "phone", MedName: "phone", Confirmed: true}); err != nil {
				t.Fatalf("SubmitFeedback: %v", err)
			}
			// Confirmed in every schema: marginal 1 everywhere the cluster
			// exists.
			for l := range sys.Med.PMed.Schemas {
				m := sys.Med.PMed.Schemas[l]
				cluster := m.ClusterOf("phone")
				if cluster == nil {
					continue
				}
				idx := -1
				for j, a := range m.Attrs {
					if a.Key() == cluster.Key() {
						idx = j
					}
				}
				got := sys.Maps[src.Name][l].MarginalProb("phone", idx)
				if math.Abs(got-1) > 1e-9 {
					t.Errorf("schema %d: marginal %f after confirm", l, got)
				}
			}
			return
		}
	}
	t.Skip("no generic source in sample")
}

func BenchmarkFeedbackStep(b *testing.B) {
	spec := datagen.People(103)
	spec.NumSources = 30
	c := datagen.MustGenerate(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.Setup(c.Corpus, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sess := NewSession(sys, &GoldenOracle{Corpus: c})
		b.StartTimer()
		if _, _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
