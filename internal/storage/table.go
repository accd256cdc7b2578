package storage

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"udi/internal/obs"
	"udi/internal/schema"
)

// Op is a comparison operator usable in a WHERE predicate. The set matches
// the paper's query workload (§7.1): =, !=, <, <=, >, >=, LIKE.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
)

var opNames = [...]string{"=", "!=", "<", "<=", ">", ">=", "LIKE"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ParseOp converts an operator token to an Op. It accepts "<>" as an alias
// for "!=".
func ParseOp(tok string) (Op, error) {
	switch tok {
	case "=", "==":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	case "LIKE", "like", "Like":
		return OpLike, nil
	}
	return 0, fmt.Errorf("storage: unknown operator %q", tok)
}

// Eval applies the operator to a cell value and a literal.
func (o Op) Eval(cell, literal string) bool {
	switch o {
	case OpEq:
		return EqualValues(cell, literal)
	case OpNe:
		return !EqualValues(cell, literal)
	case OpLt:
		return CompareValues(cell, literal) < 0
	case OpLe:
		return CompareValues(cell, literal) <= 0
	case OpGt:
		return CompareValues(cell, literal) > 0
	case OpGe:
		return CompareValues(cell, literal) >= 0
	case OpLike:
		return Like(cell, literal)
	}
	return false
}

// Pred is one WHERE predicate: attr op literal.
type Pred struct {
	Attr    string
	Op      Op
	Literal string
}

func (p Pred) String() string {
	return fmt.Sprintf("%s %s %q", p.Attr, p.Op, p.Literal)
}

// Table wraps a source instance for scanning. Tables are immutable once
// built, matching the paper's setting where source data is loaded once at
// setup time. Equality lookups build per-column hash indexes lazily:
// each indexed column maps every canonical cell value to the ascending
// list of row ids holding it, and a conjunction of equality predicates
// resolves by intersecting those postings lists instead of scanning.
type Table struct {
	Source *schema.Source

	// Obs, when set, receives index metrics: counters index.builds (one
	// per lazily built column index), index.probes (one per postings
	// lookup) and index.rows_skipped (rows the pushdown avoided
	// scanning). Set it when the table is built, before it serves
	// queries: a table outlives the engine that built it, so it is never
	// written while older readers may scan it. Nil disables recording.
	Obs *obs.Registry
	// NoIndex forces full scans (differential testing and ablations).
	// Setup-time knob, like Obs.
	NoIndex bool
	// IndexThreshold overrides the minimum row count at which equality
	// predicates use index lookups (<= 0 means the default, 64).
	IndexThreshold int

	mu      sync.Mutex
	indexes map[int]map[string][]int // column -> canonical value -> row indices
}

// NewTable builds a Table over a source.
func NewTable(s *schema.Source) *Table { return &Table{Source: s} }

// canonicalValue folds a cell into the equality class CompareValues uses:
// numeric values normalize to a canonical decimal form, strings to their
// trimmed lower-case form. Two cells are EqualValues iff their canonical
// forms are equal — the pushdown relies on this to skip re-verifying
// equality predicates on index candidates — so non-numeric strings that
// happen to start with the numeric marker are escaped out of its space.
func canonicalValue(s string) string {
	if f, ok := parseNumber(s); ok {
		return "#" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	t := strings.ToLower(strings.TrimSpace(s))
	if strings.HasPrefix(t, "#") {
		return "\x00" + t
	}
	return t
}

// index returns (building if needed) the equality index for a column.
// Postings lists are in ascending row order by construction.
func (t *Table) index(col int) map[string][]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix, ok := t.indexes[col]; ok {
		return ix
	}
	ix := make(map[string][]int)
	for r, row := range t.Source.Rows {
		k := canonicalValue(row[col])
		ix[k] = append(ix[k], r)
	}
	if t.indexes == nil {
		t.indexes = make(map[int]map[string][]int)
	}
	t.indexes[col] = ix
	t.Obs.Add("index.builds", 1)
	return ix
}

// intersectPostings merges two ascending row-id lists into their
// intersection, preserving order.
func intersectPostings(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SelectIdx scans the table, returning the matching row indices and the
// projection of rows satisfying all predicates (a conjunction) onto the
// project columns, in row order. It returns an error if any referenced
// attribute is absent from the schema — callers decide whether absence
// means "skip this source" or is a bug.
func (t *Table) SelectIdx(project []string, preds []Pred) ([]int, [][]string, error) {
	projIdx, err := t.Cols(project)
	if err != nil {
		return nil, nil, err
	}
	predAttrs := make([]string, len(preds))
	for i, p := range preds {
		predAttrs[i] = p.Attr
	}
	predIdx, err := t.Cols(predAttrs)
	if err != nil {
		return nil, nil, err
	}
	idxs, err := t.MatchCtx(context.Background(), nil, Compile(preds), predIdx)
	if err != nil {
		return nil, nil, err
	}
	var out [][]string
	for _, r := range idxs {
		proj := make([]string, len(projIdx))
		for i, c := range projIdx {
			proj[i] = t.Source.Rows[r][c]
		}
		out = append(out, proj)
	}
	return idxs, out, nil
}

// Cols resolves attribute names to the source's column indexes; an
// attribute the schema lacks is an error.
func (t *Table) Cols(attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		if cols[i] = t.Source.AttrIndex(a); cols[i] < 0 {
			return nil, fmt.Errorf("storage: source %q has no attribute %q", t.Source.Name, a)
		}
	}
	return cols, nil
}

// cancelCheckRows is the scan interval between context checks: frequent
// enough that a canceled query stops within microseconds, rare enough
// that the atomic load is invisible in scan throughput.
const cancelCheckRows = 1024

// MatchCtx appends to dst the ascending ids of the rows satisfying every
// predicate (a conjunction) and returns the extended slice. The
// predicates are compiled once per query (Compile), and attribute
// resolution is done: predIdx gives each predicate's column, which must
// be valid for the source. It projects nothing — the caller reads the
// columns it wants from Source.Rows. The scan polls ctx every
// cancelCheckRows rows; on cancellation it returns ctx.Err().
func (t *Table) MatchCtx(ctx context.Context, dst []int, preds []CPred, predIdx []int) ([]int, error) {
	// Equality predicates push down to the per-column postings: each
	// contributes a sorted row-id list, the conjunction is their
	// intersection, and the surviving candidates are verified against the
	// remaining predicates in row order. Indexes build lazily and only
	// when the table is big enough to amortize the build.
	threshold := t.IndexThreshold
	if threshold <= 0 {
		threshold = defaultIndexThreshold
	}
	if !t.NoIndex && len(t.Source.Rows) >= threshold {
		candidates, probes := []int(nil), 0
		for i := range preds {
			if preds[i].Op != OpEq {
				continue
			}
			postings := t.index(predIdx[i])[preds[i].canon]
			probes++
			if probes == 1 {
				candidates = postings
			} else {
				candidates = intersectPostings(candidates, postings)
			}
			if len(candidates) == 0 {
				break
			}
		}
		if probes > 0 {
			if t.Obs.Enabled() {
				t.Obs.Add("index.probes", int64(probes))
				t.Obs.Add("index.rows_skipped", int64(len(t.Source.Rows)-len(candidates)))
			}
			// Canonical-form equality coincides exactly with EqualValues
			// (see canonicalValue), so candidates already satisfy every
			// equality predicate; only the remaining operators need the
			// per-row check, and with none the candidates are the answer.
			if probes == len(preds) {
				return append(dst, candidates...), nil
			}
		candidates:
			for n, r := range candidates {
				if n%cancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				row := t.Source.Rows[r]
				for i := range preds {
					if preds[i].Op != OpEq && !preds[i].Eval(row[predIdx[i]]) {
						continue candidates
					}
				}
				dst = append(dst, r)
			}
			return dst, nil
		}
	}
rows:
	for r, row := range t.Source.Rows {
		if r%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for i := range preds {
			if !preds[i].Eval(row[predIdx[i]]) {
				continue rows
			}
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// defaultIndexThreshold is the row count below which a full scan beats
// building and probing an index.
const defaultIndexThreshold = 64
