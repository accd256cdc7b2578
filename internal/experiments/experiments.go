// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) over the synthetic corpora: Table 1 (corpus
// description), Table 2 (UDI vs manual integration), Figure 4 (competing
// automatic approaches), Figure 5 (deterministic-schema variants), Figure
// 6 (R-P curves), Table 3 (mediated-schema quality), Figure 7 (setup
// scaling), and Figure 3 (the Bib p-med-schema), plus the ablations listed
// in DESIGN.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/eval"
	"udi/internal/keyword"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// DomainRun caches a generated corpus and the systems built over it.
type DomainRun struct {
	Spec   *datagen.Domain
	Corpus *datagen.Corpus

	udi    *core.System
	single *core.System
	union  *core.System
	golden map[string]*eval.Golden // query string -> golden
	// kw answers the keyword baselines; it depends on the corpus alone, so
	// it is built once, on the first keyword Score.
	kw *keyword.Engine
}

// Load generates the corpus for a domain spec (systems are built lazily).
func Load(spec *datagen.Domain) (*DomainRun, error) {
	c, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &DomainRun{Spec: spec, Corpus: c, golden: map[string]*eval.Golden{}}, nil
}

// UDI returns (building if needed) the full UDI system.
func (r *DomainRun) UDI() (*core.System, error) {
	if r.udi == nil {
		sys, err := core.Setup(r.Corpus.Corpus, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Spec.Name, err)
		}
		r.udi = sys
	}
	return r.udi, nil
}

// SingleMed returns the §7.4 SingleMed system.
func (r *DomainRun) SingleMed() (*core.System, error) {
	if r.single == nil {
		sys, err := SetupSingleMed(r.Corpus.Corpus, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Spec.Name, err)
		}
		r.single = sys
	}
	return r.single, nil
}

// UnionAll returns the §7.4 UnionAll system.
func (r *DomainRun) UnionAll() (*core.System, error) {
	if r.union == nil {
		sys, err := SetupUnionAll(r.Corpus.Corpus, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Spec.Name, err)
		}
		r.union = sys
	}
	return r.union, nil
}

// SetupSingleMed configures the §7.4 SingleMed variant: the single
// deterministic mediated schema of §4.1 with probability 1.
func SetupSingleMed(c *schema.Corpus, cfg core.Config) (*core.System, error) {
	m, err := mediate.SingleSchema(c, cfg.Mediate)
	if err != nil {
		return nil, err
	}
	return setupDeterministic(c, cfg, m)
}

// SetupUnionAll configures the §7.4 UnionAll variant: one singleton
// cluster per frequent source attribute.
func SetupUnionAll(c *schema.Corpus, cfg core.Config) (*core.System, error) {
	m, err := mediate.UnionAll(c, cfg.Mediate)
	if err != nil {
		return nil, err
	}
	return setupDeterministic(c, cfg, m)
}

// setupDeterministic sets the system up under m with probability 1.
func setupDeterministic(c *schema.Corpus, cfg core.Config, m *schema.MediatedSchema) (*core.System, error) {
	pmed, err := schema.NewPMedSchema([]*schema.MediatedSchema{m}, []float64{1})
	if err != nil {
		return nil, err
	}
	return core.SetupUnder(c, cfg, &mediate.Result{PMed: pmed})
}

// Traces exports the setup span trees of every system built so far,
// keyed by approach family ("udi", "single_med", "union_all"). Systems
// not yet built are omitted.
func (r *DomainRun) Traces() map[string]*obs.SpanExport {
	out := map[string]*obs.SpanExport{}
	for name, sys := range map[string]*core.System{
		"udi": r.udi, "single_med": r.single, "union_all": r.union,
	} {
		if sys != nil && sys.Trace != nil {
			out[name] = sys.Trace.Export()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Golden memoizes golden answers per query.
func (r *DomainRun) Golden(qs string) (*eval.Golden, error) {
	if g, ok := r.golden[qs]; ok {
		return g, nil
	}
	g, err := r.Corpus.GoldenAnswers(sqlparse.MustParse(qs))
	if err != nil {
		return nil, err
	}
	r.golden[qs] = g
	return g, nil
}

// Score evaluates one approach (see Run) over the domain's 10 queries
// against the golden standard, averaging precision/recall/F. sys must be
// built over the run's corpus.
func (r *DomainRun) Score(sys *core.System, a core.Approach) (eval.PRF, error) {
	requireValues := a != KeywordNaive && a != KeywordStruct && a != KeywordStrict
	kw := func() *keyword.Engine {
		if r.kw == nil {
			r.kw = newKeywordEngine(sys)
		}
		return r.kw
	}
	var scores []eval.PRF
	for _, qs := range r.Spec.Queries {
		g, err := r.Golden(qs)
		if err != nil {
			return eval.PRF{}, err
		}
		rs, err := run(sys, a, sqlparse.MustParse(qs), kw)
		if err != nil {
			return eval.PRF{}, fmt.Errorf("%s %s on %q: %w", r.Spec.Name, a, qs, err)
		}
		scores = append(scores, eval.InstancePRF(rs.Instances, g, requireValues))
	}
	return eval.Mean(scores), nil
}

// ApproximateGolden reproduces the paper's approximate golden standard
// (§7.2): the true golden entries restricted to answers actually produced
// by UDI or by the Source baseline ("we retrieved all answers generated by
// UDI as well as the answers obtained by directly posing the query over
// each data source, and then manually removed incorrect answers"). It is
// precise but can lose recall relative to the true golden standard.
func (r *DomainRun) ApproximateGolden(qs string) (*eval.Golden, error) {
	truth, err := r.Golden(qs)
	if err != nil {
		return nil, err
	}
	sys, err := r.UDI()
	if err != nil {
		return nil, err
	}
	q := sqlparse.MustParse(qs)
	udiRS, err := sys.QueryParsed(q)
	if err != nil {
		return nil, err
	}
	srcRS, err := Run(sys, SourceOnly, q)
	if err != nil {
		return nil, err
	}
	produced := map[string]bool{}
	mark := func(insts []answer.Instance) {
		for _, inst := range insts {
			produced[fmt.Sprintf("%s\x1e%d\x1e%s", inst.Source, inst.Row, strings.Join(inst.Values, "\x1f"))] = true
		}
	}
	mark(udiRS.Instances)
	mark(srcRS.Instances)
	approx := &eval.Golden{}
	for _, e := range truth.Entries {
		if produced[fmt.Sprintf("%s\x1e%d\x1e%s", e.Key.Source, e.Key.Row, strings.Join(e.Values, "\x1f"))] {
			approx.Add(e.Key, e.Values)
		}
	}
	return approx, nil
}

// renderTable formats rows with aligned columns.
func renderTable(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// Table1 reports the corpus description (paper Table 1).
func Table1(runs []*DomainRun) string {
	rows := make([][]string, 0, len(runs))
	for _, r := range runs {
		totalRows := 0
		for _, s := range r.Corpus.Corpus.Sources {
			totalRows += len(s.Rows)
		}
		rows = append(rows, []string{
			r.Spec.Name,
			fmt.Sprintf("%d", len(r.Corpus.Corpus.Sources)),
			fmt.Sprintf("%d", totalRows),
			r.Spec.Keywords,
		})
	}
	return "Table 1: number of tables in each domain and identifying keywords\n" +
		renderTable([]string{"Domain", "#Src", "#Rows", "Keywords"}, rows)
}

// Table2Row is one measurement of Table 2.
type Table2Row struct {
	Domain   string
	Standard string // "golden" or "approx-golden"
	PRF      eval.PRF
}

// Table2 compares UDI query answering with manual integration (paper
// Table 2): People and Bib against the true golden standard, the other
// three against the approximate golden standard, mirroring §7.2.
// The true-golden scores are included for every domain as well.
func Table2(runs []*DomainRun) ([]Table2Row, string, error) {
	var out []Table2Row
	goldenDomains := map[string]bool{"People": true, "Bib": true}
	for _, r := range runs {
		sys, err := r.UDI()
		if err != nil {
			return nil, "", err
		}
		truth, err := r.Score(sys, core.UDI)
		if err != nil {
			return nil, "", err
		}
		out = append(out, Table2Row{r.Spec.Name, "golden", truth})
		if !goldenDomains[r.Spec.Name] {
			var scores []eval.PRF
			for _, qs := range r.Spec.Queries {
				g, err := r.ApproximateGolden(qs)
				if err != nil {
					return nil, "", err
				}
				rs, err := sys.QueryParsed(sqlparse.MustParse(qs))
				if err != nil {
					return nil, "", err
				}
				scores = append(scores, eval.InstancePRF(rs.Instances, g, true))
			}
			out = append(out, Table2Row{r.Spec.Name, "approx-golden", eval.Mean(scores)})
		}
	}
	var rows [][]string
	for _, row := range out {
		rows = append(rows, []string{row.Domain, row.Standard,
			f3(row.PRF.Precision), f3(row.PRF.Recall), f3(row.PRF.F)})
	}
	return out, "Table 2: UDI vs manually created integration\n" +
		renderTable([]string{"Domain", "Standard", "Precision", "Recall", "F-measure"}, rows), nil
}

// Fig4Row holds one domain × approach measurement.
type Fig4Row struct {
	Domain   string
	Approach core.Approach
	PRF      eval.PRF
}

// Fig4 compares UDI with the competing automatic approaches (paper
// Figure 4): the three keyword variants, Source, and TopMapping.
func Fig4(runs []*DomainRun) ([]Fig4Row, string, error) {
	approaches := []core.Approach{core.UDI, KeywordNaive, KeywordStruct,
		KeywordStrict, SourceOnly, TopMapping}
	var out []Fig4Row
	for _, r := range runs {
		sys, err := r.UDI()
		if err != nil {
			return nil, "", err
		}
		for _, a := range approaches {
			s, err := r.Score(sys, a)
			if err != nil {
				return nil, "", err
			}
			out = append(out, Fig4Row{r.Spec.Name, a, s})
		}
	}
	var rows [][]string
	for _, row := range out {
		rows = append(rows, []string{row.Domain, string(row.Approach),
			f3(row.PRF.Precision), f3(row.PRF.Recall), f3(row.PRF.F)})
	}
	return out, "Figure 4: query answering of UDI and alternative approaches\n" +
		renderTable([]string{"Domain", "Approach", "Precision", "Recall", "F-measure"}, rows), nil
}

// Fig5Row extends Fig4Row with a ranking-quality number: with this
// implementation's matcher the deterministic variants often reach the same
// answer sets as UDI and differ in how they rank them, so the R-P area
// (average precision) is reported alongside the instance-level measures.
type Fig5Row struct {
	Domain   string
	Variant  core.Approach
	PRF      eval.PRF
	AvgP     float64
	SetupErr bool
}

// Fig5 compares UDI with the deterministic mediated-schema variants
// (paper Figure 5): SingleMed and UnionAll.
func Fig5(runs []*DomainRun) ([]Fig5Row, string, error) {
	var out []Fig5Row
	for _, r := range runs {
		type variant struct {
			name  core.Approach
			build func() (*core.System, error)
		}
		for _, v := range []variant{
			{"UDI", r.UDI},
			{"SingleMed", r.SingleMed},
			{"UnionAll", r.UnionAll},
		} {
			sys, err := v.build()
			if err != nil {
				// The paper notes UnionAll ran out of memory on Bib; a
				// setup failure is reported, not fatal.
				out = append(out, Fig5Row{Domain: r.Spec.Name, Variant: v.name, SetupErr: true})
				continue
			}
			s, err := r.Score(sys, core.UDI)
			if err != nil {
				return nil, "", err
			}
			ap, err := r.avgPrecision(sys)
			if err != nil {
				return nil, "", err
			}
			out = append(out, Fig5Row{Domain: r.Spec.Name, Variant: v.name, PRF: s, AvgP: ap})
		}
	}
	var rows [][]string
	for _, row := range out {
		if row.SetupErr {
			rows = append(rows, []string{row.Domain, string(row.Variant), "-", "-", "-", "setup failed"})
			continue
		}
		rows = append(rows, []string{row.Domain, string(row.Variant),
			f3(row.PRF.Precision), f3(row.PRF.Recall), f3(row.PRF.F), f3(row.AvgP)})
	}
	return out, "Figure 5: UDI vs deterministic mediated-schema variants\n" +
		renderTable([]string{"Domain", "Variant", "Precision", "Recall", "F-measure", "R-P area"}, rows), nil
}

// avgPrecision averages eval.AveragePrecision over the domain's queries.
func (r *DomainRun) avgPrecision(sys *core.System) (float64, error) {
	sum := 0.0
	for _, qs := range r.Spec.Queries {
		g, err := r.Golden(qs)
		if err != nil {
			return 0, err
		}
		rs, err := sys.QueryParsed(sqlparse.MustParse(qs))
		if err != nil {
			return 0, err
		}
		sum += eval.AveragePrecision(rs.Ranked, g.DistinctTuples())
	}
	return sum / float64(len(r.Spec.Queries)), nil
}

// Fig6Curve is one system's R-P curve.
type Fig6Curve struct {
	System string
	Points []eval.RPPoint
}

// Fig6 plots the recall-precision curves of UDI and SingleMed on one
// domain (the paper's Figure 6 uses Movie and notes the other domains
// behave similarly; the People domain, with the most ambiguity, separates
// the curves most). Duplicates are eliminated and probabilities combined
// before ranking, per §7.1.
func Fig6(movie *DomainRun) ([]Fig6Curve, string, error) {
	levels := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	udi, err := movie.UDI()
	if err != nil {
		return nil, "", err
	}
	single, err := movie.SingleMed()
	if err != nil {
		return nil, "", err
	}
	curveFor := func(sys *core.System) ([]eval.RPPoint, error) {
		// Average the per-query curves.
		sum := make([]float64, len(levels))
		n := 0
		for _, qs := range movie.Spec.Queries {
			g, err := movie.Golden(qs)
			if err != nil {
				return nil, err
			}
			rs, err := sys.QueryParsed(sqlparse.MustParse(qs))
			if err != nil {
				return nil, err
			}
			pts := eval.RPCurve(rs.Ranked, g.DistinctTuples(), levels)
			for i, p := range pts {
				sum[i] += p.Precision
			}
			n++
		}
		out := make([]eval.RPPoint, len(levels))
		for i, r := range levels {
			out[i] = eval.RPPoint{Recall: r, Precision: sum[i] / float64(n)}
		}
		return out, nil
	}
	udiPts, err := curveFor(udi)
	if err != nil {
		return nil, "", err
	}
	smPts, err := curveFor(single)
	if err != nil {
		return nil, "", err
	}
	curves := []Fig6Curve{{"UDI", udiPts}, {"SingleMed", smPts}}
	var rows [][]string
	for i, r := range levels {
		rows = append(rows, []string{fmt.Sprintf("%.1f", r), f3(udiPts[i].Precision), f3(smPts[i].Precision)})
	}
	return curves, fmt.Sprintf("Figure 6: R-P curves for the %s domain (avg over 10 queries)\n", movie.Spec.Name) +
		renderTable([]string{"Recall", "UDI precision", "SingleMed precision"}, rows), nil
}

// Table3 measures p-med-schema quality as pairwise clustering
// precision/recall against the golden concept labels (paper Table 3).
func Table3(runs []*DomainRun) (map[string]eval.PRF, string, error) {
	out := make(map[string]eval.PRF, len(runs))
	var rows [][]string
	var sum eval.PRF
	for _, r := range runs {
		sys, err := r.UDI()
		if err != nil {
			return nil, "", err
		}
		s := eval.PMedClusteringPRF(sys.Med.PMed, r.Corpus.GoldenClusters)
		out[r.Spec.Name] = s
		sum.Precision += s.Precision
		sum.Recall += s.Recall
		sum.F += s.F
		rows = append(rows, []string{r.Spec.Name, f3(s.Precision), f3(s.Recall), f3(s.F)})
	}
	n := float64(len(runs))
	rows = append(rows, []string{"Avg", f3(sum.Precision / n), f3(sum.Recall / n), f3(sum.F / n)})
	return out, "Table 3: precision, recall and F-measure of generated p-med-schemas\n" +
		renderTable([]string{"Domain", "Precision", "Recall", "F-measure"}, rows), nil
}

// Fig7Point is one scaling measurement: the production pipeline's setup
// timings by stage at Parallelism 1 (the paper's §7.6 timings are
// single-threaded).
type Fig7Point struct {
	Sources int
	Timings core.Timings
}

// Fig7 measures system setup time on growing prefixes of the Car domain
// (paper Figure 7), by stage. The paper reports linear scaling with the
// maximum-entropy step dominating. Setup builds only the consolidated
// schema; the consolidated p-mappings wait for first use, so each run
// forces them and adds their time to the Consolidation stage, which
// therefore still covers the whole of §6. Each prefix runs three times
// and the fastest total is kept — single-shot wall times on a shared
// machine are too noisy to compare.
func Fig7(car *DomainRun, steps []int) ([]Fig7Point, string, error) {
	const reps = 3
	var out []Fig7Point
	for _, n := range steps {
		sub := car.Corpus.Corpus.Prefix(n)
		var best core.Timings
		for r := 0; r < reps; r++ {
			sys, err := core.Setup(sub, core.Config{Parallelism: 1})
			if err != nil {
				return nil, "", err
			}
			tm := sys.Timings
			t0 := time.Now()
			sys.Snapshot().ConsMaps()
			tm.Consolidation += time.Since(t0)
			if r == 0 || tm.Total() < best.Total() {
				best = tm
			}
		}
		out = append(out, Fig7Point{Sources: len(sub.Sources), Timings: best})
	}
	var rows [][]string
	for _, p := range out {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Sources),
			p.Timings.Import.Round(1e6).String(),
			p.Timings.MedSchema.Round(1e6).String(),
			p.Timings.PMappings.Round(1e6).String(),
			p.Timings.Consolidation.Round(1e6).String(),
			p.Timings.Total().Round(1e6).String(),
		})
	}
	return out, "Figure 7: system setup time for the Car domain (single-threaded, by stage)\n" +
		renderTable([]string{"#Sources", "Import", "P-med-schema", "P-mappings", "Consolidation", "Total"}, rows), nil
}

// Fig3 renders the Bib p-med-schema (paper Figure 3 / Example 4.2).
func Fig3(bib *DomainRun) (string, error) {
	sys, err := bib.UDI()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: p-med-schema generated for the Bib domain\n")
	b.WriteString(fmt.Sprintf("uncertain edges: %v\n", sys.Med.Graph.Uncertain))
	for i, m := range sys.Med.PMed.Schemas {
		fmt.Fprintf(&b, "M%d (P=%.3f): %s\n", i+1, sys.Med.PMed.Probs[i], m)
	}
	fmt.Fprintf(&b, "consolidated: %s\n", sys.Target)
	return b.String(), nil
}

// QueryTimes measures average query answering latency over the domain's
// queries (§7.6 reports ≤ 2s on 817 sources).
func QueryTimes(r *DomainRun) (perQueryMillis float64, err error) {
	sys, err := r.UDI()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, qs := range r.Spec.Queries {
		q := sqlparse.MustParse(qs)
		start := nowMillis()
		if _, err := sys.QueryParsed(q); err != nil {
			return 0, err
		}
		total += nowMillis() - start
	}
	return total / float64(len(r.Spec.Queries)), nil
}

// SortedDomainNames lists runs' names deterministically.
func SortedDomainNames(runs []*DomainRun) []string {
	names := make([]string, len(runs))
	for i, r := range runs {
		names[i] = r.Spec.Name
	}
	sort.Strings(names)
	return names
}
