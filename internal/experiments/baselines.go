package experiments

import (
	"context"
	"fmt"

	"udi/internal/answer"
	"udi/internal/consolidate"
	"udi/internal/core"
	"udi/internal/keyword"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// The competing approaches of §7.3 (Figure 4). They are the paper's
// comparison, not its system, so they are answered here and never served;
// the names are core.Approach values so Figure 4 names them beside UDI.
const (
	SourceOnly    core.Approach = "Source"
	TopMapping    core.Approach = "TopMapping"
	KeywordNaive  core.Approach = "KeywordNaive"
	KeywordStruct core.Approach = "KeywordStruct"
	KeywordStrict core.Approach = "KeywordStrict"
)

// Run answers q on sys under approach a: UDI and UDI-Consolidated through
// core, the five baselines here. A keyword approach indexes sys's corpus
// for the one call; DomainRun.Score indexes once per run.
func Run(sys *core.System, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	return run(sys, a, q, func() *keyword.Engine { return newKeywordEngine(sys) })
}

// run is Run with the keyword engine kw supplies, built only when a
// keyword approach asks for it.
func run(sys *core.System, a core.Approach, q *sqlparse.Query, kw func() *keyword.Engine) (*answer.ResultSet, error) {
	sn := sys.Snapshot()
	switch a {
	case core.UDI, core.Consolidated:
		return sn.RunInstancesCtx(context.Background(), a, q)
	case SourceOnly:
		return answerSource(sys.Engine(), sn.Corpus, q)
	case TopMapping:
		return answerTopMapping(sys.Engine(), sn, sn.ConsMaps(), q)
	case KeywordNaive, KeywordStruct, KeywordStrict:
		v := map[core.Approach]keyword.Variant{KeywordNaive: keyword.Naive, KeywordStruct: keyword.Struct, KeywordStrict: keyword.Strict}[a]
		// Keyword engines return matching rows, unranked.
		return &answer.ResultSet{Instances: kw().Answer(q, v)}, nil
	}
	return nil, fmt.Errorf("experiments: unknown approach %q", a)
}

func newKeywordEngine(sys *core.System) *keyword.Engine {
	return keyword.NewEngine(keyword.BuildIndex(sys.Corpus, sys.Cfg.Parallelism))
}

// answerSource is the Source baseline (§7.3): the query posed directly on
// every source whose schema literally contains all query attributes, its
// answers certain and combined by union. It runs as a deterministic
// consolidated input: the target is one singleton cluster per query
// attribute, onto which each such source maps by identity with
// probability 1; every other source has no mapping.
func answerSource(e *answer.Engine, c *schema.Corpus, q *sqlparse.Query) (*answer.ResultSet, error) {
	attrs := q.Attrs()
	clusters := make([]schema.MediatedAttr, len(attrs))
	for i, a := range attrs {
		clusters[i] = schema.NewMediatedAttr(a)
	}
	target, err := schema.NewMediatedSchema(clusters)
	if err != nil {
		return nil, err
	}
	identity := consolidate.OneToMany{SrcToMed: make(map[string][]int, len(attrs)), Prob: 1}
	for i, cluster := range target.Attrs {
		identity.SrcToMed[cluster[0]] = []int{i}
	}
	maps := make(map[string]*consolidate.PMapping, len(c.Sources))
outer:
	for _, src := range c.Sources {
		pm := &consolidate.PMapping{SourceName: src.Name, Target: target}
		maps[src.Name] = pm
		for _, a := range attrs {
			if !src.HasAttr(a) {
				continue outer
			}
		}
		pm.Mappings = []consolidate.OneToMany{identity}
	}
	return e.AnswerConsolidated(target, maps, q)
}

// answerTopMapping is the TopMapping baseline (§7.3): the consolidated
// mediated schema with only the highest-probability mapping per source,
// taken as certain. cons holds sn's consolidated p-mappings.
func answerTopMapping(e *answer.Engine, sn *core.Snapshot, cons map[string]*consolidate.PMapping, q *sqlparse.Query) (*answer.ResultSet, error) {
	maps := make(map[string]*consolidate.PMapping, len(sn.Corpus.Sources))
	for _, src := range sn.Corpus.Sources {
		pm := &consolidate.PMapping{SourceName: src.Name, Target: sn.Target}
		maps[src.Name] = pm
		if cpm, ok := cons[src.Name]; ok {
			best := -1
			for i, m := range cpm.Mappings {
				if best < 0 || m.Prob > cpm.Mappings[best].Prob {
					best = i
				}
			}
			if best >= 0 {
				pm.Mappings = []consolidate.OneToMany{{SrcToMed: cpm.Mappings[best].SrcToMed, Prob: 1}}
			}
			continue
		}
		// Fallback for sources whose consolidation was skipped: the top
		// mapping of the most probable schema, rewritten into T-space by
		// cluster containment.
		top, _ := sn.Maps[src.Name][0].TopMapping()
		rewritten := make(map[string][]int)
		for mi, srcAttr := range top {
			cluster := sn.Med.PMed.Schemas[0].Attrs[mi]
			for ti, tAttr := range sn.Target.Attrs {
				if cluster.Contains(tAttr[0]) {
					rewritten[srcAttr] = append(rewritten[srcAttr], ti)
				}
			}
		}
		pm.Mappings = []consolidate.OneToMany{{SrcToMed: rewritten, Prob: 1}}
	}
	return e.AnswerConsolidated(sn.Target, maps, q)
}
