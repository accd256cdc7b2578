// Package reference is the test-only oracle the differential suites
// compare the production pipeline against: the paper's setup (Figure 2:
// Algorithms 1–3, then §6 consolidation) and the §9 feedback loop written
// as straight-line calls into the algorithm packages. Nothing here is
// cached, interned, deduplicated, batched or parallel — every similarity
// is a direct call of the configured function, every source's p-mappings
// and consolidation are computed from scratch, in corpus order.
//
// It must stay obviously correct rather than fast, and it must never
// ship: it imports only the algorithm packages (never core, answer or
// intern), and `make check` fails if any binary under cmd/ links
// it.
package reference

import (
	"fmt"

	"udi/internal/consolidate"
	"udi/internal/mediate"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/strutil"
)

// Config carries the algorithm parameters, with core.Config's defaults:
// the p-mapping similarity follows the mediation similarity unless set,
// both default to strutil.AttrSim, and consolidation materializes at
// most 100000 mappings per source.
type Config struct {
	Mediate          mediate.Config
	PMap             pmapping.Config
	ConsolidateLimit int64
}

func (c Config) withDefaults() Config {
	if c.ConsolidateLimit == 0 {
		c.ConsolidateLimit = 100000
	}
	if c.Mediate.Sim == nil {
		c.Mediate.Sim = strutil.AttrSim
	}
	if c.PMap.Sim == nil {
		c.PMap.Sim = c.Mediate.Sim
	}
	return c
}

// System holds the setup artifacts, field for field what core.System
// serves.
type System struct {
	Corpus *schema.Corpus
	Cfg    Config

	Med *mediate.Result
	// Maps[source][l] is the p-mapping between a source and Med's l-th
	// schema.
	Maps   map[string][]*pmapping.PMapping
	Target *schema.MediatedSchema
	// ConsMaps lacks a source whose consolidation exceeded
	// Cfg.ConsolidateLimit.
	ConsMaps map[string]*consolidate.PMapping
}

// Setup runs the paper's automatic configuration over the corpus.
func Setup(c *schema.Corpus, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	med, err := mediate.Generate(c, cfg.Mediate)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	s := &System{
		Corpus:   c,
		Cfg:      cfg,
		Med:      med,
		Maps:     make(map[string][]*pmapping.PMapping, len(c.Sources)),
		ConsMaps: make(map[string]*consolidate.PMapping, len(c.Sources)),
	}
	for _, src := range c.Sources {
		for _, m := range med.PMed.Schemas {
			pm, err := pmapping.Build(src, m, cfg.PMap)
			if err != nil {
				return nil, fmt.Errorf("reference: p-mapping for %q: %w", src.Name, err)
			}
			s.Maps[src.Name] = append(s.Maps[src.Name], pm)
		}
	}
	if s.Target, err = consolidate.Schema(med.PMed); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for _, src := range c.Sources {
		s.consolidate(src.Name)
	}
	return s, nil
}

// consolidate rebuilds one source's consolidated p-mapping from its
// per-schema p-mappings. A source too large to materialize is left out;
// answering over the p-med-schema is equivalent (Theorem 6.2).
func (s *System) consolidate(source string) {
	cpm, err := consolidate.ConsolidateMappings(s.Med.PMed, s.Target, s.Maps[source], s.Cfg.ConsolidateLimit)
	if err != nil {
		delete(s.ConsMaps, source)
		return
	}
	s.ConsMaps[source] = cpm
}

// Feedback is one pay-as-you-go correction, field for field
// core.Feedback: source attribute SrcAttr does (Confirmed) or does not
// correspond to the mediated attribute named by MedName in every schema
// whose clustering contains it, or — when MedName is empty — to
// attribute MedIdx of schema SchemaIdx only.
type Feedback struct {
	Source    string
	SrcAttr   string
	MedName   string
	SchemaIdx int
	MedIdx    int
	Confirmed bool
}

// Feedback conditions the source's p-mappings on fb, one commit at a
// time: all of fb's targets condition or none does, then the source's
// consolidated p-mapping is rebuilt from scratch.
func (s *System) Feedback(fb Feedback) error {
	pms, ok := s.Maps[fb.Source]
	if !ok {
		return fmt.Errorf("reference: unknown source %q", fb.Source)
	}
	type target struct{ schemaIdx, medIdx int }
	var targets []target
	if fb.MedName != "" {
		for l, m := range s.Med.PMed.Schemas {
			cluster := m.ClusterOf(fb.MedName)
			if cluster == nil {
				continue
			}
			for j, a := range m.Attrs {
				if a.Key() == cluster.Key() {
					targets = append(targets, target{l, j})
					break
				}
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("reference: no mediated attribute contains %q", fb.MedName)
		}
	} else {
		if fb.SchemaIdx < 0 || fb.SchemaIdx >= len(pms) {
			return fmt.Errorf("reference: schema index %d out of range [0,%d)", fb.SchemaIdx, len(pms))
		}
		if fb.MedIdx < 0 || fb.MedIdx >= len(s.Med.PMed.Schemas[fb.SchemaIdx].Attrs) {
			return fmt.Errorf("reference: mediated attribute %d out of range", fb.MedIdx)
		}
		targets = append(targets, target{fb.SchemaIdx, fb.MedIdx})
	}

	next := make([]*pmapping.PMapping, len(pms))
	for l, pm := range pms {
		next[l] = pm.Clone()
	}
	for _, t := range targets {
		if err := next[t.schemaIdx].Condition(fb.SrcAttr, t.medIdx, fb.Confirmed, s.Cfg.PMap); err != nil {
			return err
		}
	}
	s.Maps[fb.Source] = next
	s.consolidate(fb.Source)
	return nil
}
