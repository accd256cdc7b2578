// Benchmarks regenerating the paper's evaluation artifacts (§7), one per
// table and figure, plus the DESIGN.md ablations. Quality-oriented
// benchmarks use the People domain (the smallest, 49 sources, and the one
// exercising every mechanism); scaling benchmarks use Car prefixes.
//
// Run with: go test -bench=. -benchmem
package udi_test

import (
	"fmt"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/eval"
	"udi/internal/experiments"
	"udi/internal/feedback"
	"udi/internal/obs"
	"udi/internal/pmapping"
	"udi/internal/reference"
	"udi/internal/sqlparse"
	"udi/internal/strutil"
)

// sharedRun lazily builds the People domain run reused across benchmarks.
var sharedRun *experiments.DomainRun

func peopleRun(b *testing.B) *experiments.DomainRun {
	b.Helper()
	if sharedRun == nil {
		r, err := experiments.Load(datagen.People(103))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.UDI(); err != nil {
			b.Fatal(err)
		}
		sharedRun = r
	}
	return sharedRun
}

// BenchmarkTable1CorpusGen measures synthetic corpus generation (the
// substitute for the paper's web crawl behind Table 1).
func BenchmarkTable1CorpusGen(b *testing.B) {
	spec := datagen.People(103)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := datagen.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2UDISetupAndQuery measures the full Table 2 pipeline:
// automatic setup plus the 10 evaluation queries scored against the golden
// standard.
func BenchmarkTable2UDISetupAndQuery(b *testing.B) {
	r := peopleRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.Setup(r.Corpus.Corpus, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Score(sys, core.UDI); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Baselines measures one query under every competing
// approach of Figure 4.
func BenchmarkFig4Baselines(b *testing.B) {
	r := peopleRun(b)
	sys, err := r.UDI()
	if err != nil {
		b.Fatal(err)
	}
	q := sqlparse.MustParse(r.Spec.Queries[0])
	approaches := []core.Approach{core.UDI, experiments.KeywordNaive, experiments.KeywordStruct,
		experiments.KeywordStrict, experiments.SourceOnly, experiments.TopMapping}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range approaches {
			if _, err := experiments.Run(sys, a, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5MediatedVariants measures setting up the deterministic
// mediated-schema variants of Figure 5.
func BenchmarkFig5MediatedVariants(b *testing.B) {
	r := peopleRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SetupSingleMed(r.Corpus.Corpus, core.Config{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.SetupUnionAll(r.Corpus.Corpus, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6RPCurve measures ranked answering plus R-P curve
// computation (Figure 6).
func BenchmarkFig6RPCurve(b *testing.B) {
	r := peopleRun(b)
	sys, err := r.UDI()
	if err != nil {
		b.Fatal(err)
	}
	q := sqlparse.MustParse(r.Spec.Queries[0])
	g, err := r.Golden(r.Spec.Queries[0])
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sys.QueryParsed(q)
		if err != nil {
			b.Fatal(err)
		}
		eval.RPCurve(rs.Ranked, g.DistinctTuples(), levels)
	}
}

// BenchmarkTable3SchemaQuality measures the clustering-quality scoring of
// Table 3.
func BenchmarkTable3SchemaQuality(b *testing.B) {
	r := peopleRun(b)
	sys, err := r.UDI()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.PMedClusteringPRF(sys.Med.PMed, r.Corpus.GoldenClusters)
	}
}

// BenchmarkFig7SetupScaling measures full automatic setup on the whole
// 817-source Car corpus (the Figure 7 workload at its final sweep
// point): the production pipeline single-threaded (the paper's §7.6
// shape) and at default parallelism, beside the straight-line reference
// oracle (direct similarity calls, every source from scratch, serial) —
// what the interned matrix and the schema-dedup caches save.
func BenchmarkFig7SetupScaling(b *testing.B) {
	spec := datagen.Car(102)
	corpus, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	full := corpus.Corpus
	b.Run("naive-1t", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reference.Setup(full, reference.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"fast-1t", core.Config{Parallelism: 1}},
		{"fast-mt", core.Config{}}, // default parallelism = GOMAXPROCS
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last *core.System
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := core.Setup(full, mode.cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = sys
			}
			b.StopTimer()
			// Break the headline number down by pipeline stage using the
			// setup span tree, so regressions localize without a profiler.
			if tr := last.Trace.Export(); tr != nil {
				for _, child := range tr.Children {
					b.ReportMetric(child.DurationMS, child.Name+"-ms")
				}
			}
		})
	}
}

// BenchmarkFig3BibSchema measures p-med-schema generation on a Bib prefix
// (the Figure 3 artifact).
func BenchmarkFig3BibSchema(b *testing.B) {
	spec := datagen.Bib(105)
	spec.NumSources = 150
	corpus, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Setup(corpus.Corpus, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAnswering measures per-query latency over the People
// corpus (§7.6 reports ≤ 2 s per query on 817 sources).
func BenchmarkQueryAnswering(b *testing.B) {
	r := peopleRun(b)
	sys, err := r.UDI()
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*sqlparse.Query, len(r.Spec.Queries))
	for i, qs := range r.Spec.Queries {
		queries[i] = sqlparse.MustParse(qs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.QueryParsed(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSimilarity measures setup with an alternative matcher
// (DESIGN.md A1).
func BenchmarkAblationSimilarity(b *testing.B) {
	r := peopleRun(b)
	cfg := core.Config{}
	cfg.Mediate.Sim = func(x, y string) float64 {
		return strutil.LevenshteinSim(strutil.Normalize(x), strutil.Normalize(y))
	}
	cfg.PMap.Sim = cfg.Mediate.Sim
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Setup(r.Corpus.Corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMaxent measures setup under the uniform probability
// assignment (DESIGN.md A2).
func BenchmarkAblationMaxent(b *testing.B) {
	r := peopleRun(b)
	cfg := core.Config{}
	cfg.PMap.Assignment = pmapping.AssignUniform
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Setup(r.Corpus.Corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayAsYouGo measures one uncertainty-ranked feedback step
// (candidate selection + oracle + conditioning + re-consolidation).
func BenchmarkPayAsYouGo(b *testing.B) {
	r := peopleRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.Setup(r.Corpus.Corpus, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sess := feedback.NewSession(sys, &feedback.GoldenOracle{Corpus: r.Corpus})
		b.StartTimer()
		if _, _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParallelism contrasts serial and parallel query answering
// over the Car corpus (an ablation for the concurrent engine).
func BenchmarkQueryParallelism(b *testing.B) {
	spec := datagen.Car(102)
	spec.NumSources = 400
	r, err := experiments.Load(spec)
	if err != nil {
		b.Fatal(err)
	}
	q := sqlparse.MustParse(spec.Queries[0])
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS default
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := core.Setup(r.Corpus.Corpus, core.Config{Parallelism: maxInt(workers, 1)})
			if err != nil {
				b.Fatal(err)
			}
			// The engine's parallelism mirrors the config through core; we
			// exercise the end-to-end query path.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.QueryParsed(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkMetricsOverhead contrasts query answering with a live
// observability registry against the no-op registry — the cost of the
// instrumentation itself on the hot path. EXPERIMENTS.md records the
// measured overhead.
func BenchmarkMetricsOverhead(b *testing.B) {
	r := peopleRun(b)
	q := sqlparse.MustParse(r.Spec.Queries[0])
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"instrumented", obs.NewRegistry()},
		{"noop", obs.Disabled},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := core.Setup(r.Corpus.Corpus, core.Config{Obs: mode.reg})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.QueryParsed(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryHotPath measures the query-serving path on the Movie
// domain: "cold" invalidates the plan cache before every query (plan
// build + indexed scans), "warm" serves from the populated cache.
func BenchmarkQueryHotPath(b *testing.B) {
	r, err := experiments.Load(datagen.Movie(101))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*sqlparse.Query, len(r.Spec.Queries))
	for i, qs := range r.Spec.Queries {
		queries[i] = sqlparse.MustParse(qs)
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			sys, err := core.Setup(r.Corpus.Corpus, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			e := sys.Engine()
			if mode == "warm" {
				for _, q := range queries {
					if _, err := sys.QueryParsed(q); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					e.InvalidatePlans()
				}
				if _, err := sys.QueryParsed(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryAfterCommit measures the first query after a commit on
// the Car corpus (817 sources, its ten evaluation queries in turn):
// "feedback" conditions one source's p-mappings, "fast-add" adds one
// source (after removing it again, so the corpus keeps its size), both
// untimed; "warm" commits nothing, and "cold" drops every cached plan
// instead. A plan survives both commits and re-resolves only the changed
// source, so the two commit arms read like "warm", not like "cold".
func BenchmarkQueryAfterCommit(b *testing.B) {
	spec := datagen.Car(102)
	spec.NumSources = 818
	gen := datagen.MustGenerate(spec)
	all := gen.Corpus.Sources
	sys, err := core.Setup(gen.Corpus.Prefix(817), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*sqlparse.Query, len(spec.Queries))
	for i, qs := range spec.Queries {
		queries[i] = sqlparse.MustParse(qs)
	}
	for _, q := range queries {
		if _, err := sys.QueryParsed(q); err != nil {
			b.Fatal(err)
		}
	}
	added := all[817:]
	commit := map[string]func(i int) error{
		"warm": func(int) error { return nil },
		"cold": func(int) error { sys.Engine().InvalidatePlans(); return nil },
		"feedback": func(i int) error {
			src := all[i%817]
			c := sys.Maps[src.Name][0].Groups[0].Corrs[0]
			return sys.SubmitFeedback(core.Feedback{Source: src.Name, SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Confirmed: true})
		},
		"fast-add": func(i int) error {
			if i > 0 {
				if _, err := sys.RemoveSource(added[0].Name); err != nil {
					return err
				}
			}
			if fast, err := sys.AddSources(added); err != nil || !fast {
				return fmt.Errorf("add: fast=%v err=%v", fast, err)
			}
			return nil
		},
	}
	for _, mode := range []string{"warm", "feedback", "fast-add", "cold"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := commit[mode](i); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sys.QueryParsed(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "fast-add" {
				if _, err := sys.RemoveSource(added[0].Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkByTupleRanking measures the by-tuple recombination extension.
func BenchmarkByTupleRanking(b *testing.B) {
	r := peopleRun(b)
	sys, err := r.UDI()
	if err != nil {
		b.Fatal(err)
	}
	rs, err := sys.QueryParsed(sqlparse.MustParse(r.Spec.Queries[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.ByTupleRanking()
	}
}

// BenchmarkSetupScale is the setup-scaling sweep behind the paper's
// linear-setup claim (§7.6, Figure 7): full automatic setup over
// synthetic scale corpora of 1k/5k/10k/20k sources (vocabulary growing
// near-linearly with the source count). Each size reports the setup
// trace's per-stage milliseconds and the setup cost per source; the bar
// is a flat µs/source across the sweep. The repository benchmark's
// setup.scale5k workload (bench/) tracks the 5k point end to end.
func BenchmarkSetupScale(b *testing.B) {
	for _, n := range []int{1000, 5000, 10000, 20000} {
		corpus := datagen.ScaleCorpus(n, 102)
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			var last *core.System
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := core.Setup(corpus, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				last = sys
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "µs/source")
			if tr := last.Trace.Export(); tr != nil {
				for _, child := range tr.Children {
					b.ReportMetric(child.DurationMS, child.Name+"-ms")
				}
			}
		})
	}
}
