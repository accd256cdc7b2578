package answer

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"udi/internal/sqlparse"
	"udi/internal/storage"
)

// Contribution explains one way an answer tuple was derived: a source, a
// possible mediated schema, and a concrete mapping assignment under which
// the rewritten query produced the tuple, together with the probability
// mass that path carries (schema probability × mapping probability).
type Contribution struct {
	Source    string
	SchemaIdx int
	// MedToSrc is the mediated→source attribute assignment used.
	MedToSrc map[int]string
	// Rows lists the matching row indices in the source.
	Rows []int
	// Mass is Pr(M_l) × Pr(assignment): the amount this path adds to the
	// tuple's per-source probability.
	Mass float64
}

// Explain recomputes the derivation of one answer tuple under the
// p-med-schema semantics, returning every contributing (source, schema,
// mapping) path sorted by descending mass. It is the provenance view a
// pay-as-you-go administrator uses to see *why* the system returned an
// answer before deciding what feedback to give.
func (e *Engine) Explain(in PMedInput, q *sqlparse.Query, values []string) ([]Contribution, error) {
	return e.ExplainCtx(context.Background(), in, q, values)
}

// ExplainCtx is Explain under a context: the provenance scans poll for
// cancellation like the query path does.
func (e *Engine) ExplainCtx(ctx context.Context, in PMedInput, q *sqlparse.Query, values []string) ([]Contribution, error) {
	want := tupleKey(values)
	where := storage.Compile(q.Where)
	var out []Contribution
	for _, src := range e.corpus.Sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pms := in.Maps[src.Name]
		if len(pms) != in.PMed.Len() {
			return nil, fmt.Errorf("answer: source %q has %d p-mappings for %d schemas",
				src.Name, len(pms), in.PMed.Len())
		}
		for l, med := range in.PMed.Schemas {
			medIdxs, ok := queryMedIdxs(q, med)
			if !ok {
				continue
			}
			idxList := make([]int, 0, len(medIdxs))
			for _, j := range medIdxs {
				idxList = append(idxList, j)
			}
			for _, asgn := range pms[l].AssignmentsFor(idxList) {
				if asgn.Prob == 0 {
					continue
				}
				medToSrc := make(map[int]string, len(idxList))
				for i, a := range asgn.SrcAttrs {
					if a != "" {
						medToSrc[idxList[i]] = a
					}
				}
				rows, ok, err := e.rowsProducing(ctx, src.Name, q, where, medIdxs, medToSrc, want)
				if err != nil {
					return nil, err
				}
				if !ok || len(rows) == 0 {
					continue
				}
				out = append(out, Contribution{
					Source:    src.Name,
					SchemaIdx: l,
					MedToSrc:  medToSrc,
					Rows:      rows,
					Mass:      in.PMed.Probs[l] * asgn.Prob,
				})
			}
		}
	}
	return MergeContributions(out), nil
}

// MergeContributions concatenates per-partition contribution lists and
// orders them the way Explain reports provenance: mass descending, then
// source, then schema index. It is the only place that order is defined —
// the engine sorts its own list through it and a scatter-gather
// coordinator merges its shards' lists through it. Order among
// contributions tied on all three keys is not pinned.
func MergeContributions(parts ...[]Contribution) []Contribution {
	var out []Contribution
	if len(parts) == 1 {
		out = parts[0] // a lone list is sorted in place
	} else {
		for _, cs := range parts {
			out = append(out, cs...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mass != out[j].Mass {
			return out[i].Mass > out[j].Mass
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].SchemaIdx < out[j].SchemaIdx
	})
	return out
}

// rowsProducing rewrites q, its WHERE compiled as where, under the
// assignment and returns the rows whose projection equals the wanted
// tuple. ok is false when the assignment leaves a query attribute
// unmapped.
func (e *Engine) rowsProducing(ctx context.Context, source string, q *sqlparse.Query, where []storage.CPred, medIdxs map[string]int, medToSrc map[int]string, want string) ([]int, bool, error) {
	tbl := e.tables[source]
	cols, ok, err := assignmentCols(tbl, q, medIdxs, medToSrc)
	if !ok {
		return nil, false, err
	}
	idxs, err := tbl.MatchCtx(ctx, nil, where, cols[len(q.Select):])
	if err != nil {
		return nil, false, err
	}
	var match []int
	tuple := make([]string, len(q.Select))
	for _, r := range idxs {
		for i, c := range cols[:len(q.Select)] {
			tuple[i] = tbl.Source.Rows[r][c]
		}
		if tupleKey(tuple) == want {
			match = append(match, r)
		}
	}
	return match, true, nil
}

// String renders a contribution compactly.
func (c Contribution) String() string {
	pairs := make([]string, 0, len(c.MedToSrc))
	idxs := make([]int, 0, len(c.MedToSrc))
	for j := range c.MedToSrc {
		idxs = append(idxs, j)
	}
	sort.Ints(idxs)
	for _, j := range idxs {
		pairs = append(pairs, fmt.Sprintf("A%d←%s", j, c.MedToSrc[j]))
	}
	return fmt.Sprintf("%s schema=%d mass=%.4f rows=%v [%s]",
		c.Source, c.SchemaIdx, c.Mass, c.Rows, strings.Join(pairs, " "))
}
