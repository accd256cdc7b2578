// Package keyword implements the keyword-search baselines of §7.3. Given a
// structured query Q, a keyword query Q′ is formed from the attribute names
// in Q's SELECT clause and the literal values in its WHERE clause; the
// three variants then differ in how Q′ is evaluated:
//
//   - KeywordNaive: rows containing ANY keyword of Q′;
//   - KeywordStruct: keywords that appear in a source's attribute names are
//     structure terms for that source; rows containing ANY value term;
//   - KeywordStrict: same classification; rows containing ALL value terms.
//
// Results are whole source rows (documents), mirroring what a keyword
// search engine over the table corpus would return.
package keyword

import (
	"udi/internal/answer"
	"udi/internal/sqlparse"
	"udi/internal/strutil"
)

// Variant selects one of the three keyword baselines.
type Variant int

const (
	Naive Variant = iota
	Struct
	Strict
)

func (v Variant) String() string {
	switch v {
	case Naive:
		return "KeywordNaive"
	case Struct:
		return "KeywordStruct"
	case Strict:
		return "KeywordStrict"
	}
	return "Keyword(?)"
}

// Engine evaluates keyword queries over a prebuilt index.
type Engine struct {
	index *Index
}

// NewEngine wraps a keyword index.
func NewEngine(ix *Index) *Engine { return &Engine{index: ix} }

// Keywords extracts the keyword query Q′ from a structured query:
// attribute names in the SELECT clause and values in the WHERE clause.
func Keywords(q *sqlparse.Query) []string {
	var out []string
	out = append(out, q.Select...)
	for _, p := range q.Where {
		out = append(out, p.Literal)
	}
	return out
}

// Answer runs the chosen variant and returns one instance per matching
// row. Probabilities are 1: keyword engines do not rank by mapping
// uncertainty.
func (e *Engine) Answer(q *sqlparse.Query, v Variant) []answer.Instance {
	keywords := Keywords(q)
	var refs []RowRef
	switch v {
	case Naive:
		refs = e.index.RowsWithAny(keywords)
	case Struct, Strict:
		refs = e.answerClassified(keywords, v)
	}
	out := make([]answer.Instance, 0, len(refs))
	for _, ref := range refs {
		row := e.index.Row(ref)
		if row == nil {
			continue
		}
		values := make([]string, len(row))
		copy(values, row)
		out = append(out, answer.Instance{Source: ref.Source, Row: ref.Row, Values: values, Prob: 1})
	}
	return out
}

// answerClassified implements KeywordStruct/KeywordStrict: per source, a
// keyword is a structure term when it occurs in that source's attribute
// names; the remaining value terms are matched with OR (Struct) or AND
// (Strict) semantics against the source's rows.
func (e *Engine) answerClassified(keywords []string, v Variant) []RowRef {
	// Candidate rows come from the union; we then re-check per source with
	// the source-specific classification.
	candidates := e.index.RowsWithAny(keywords)
	var out []RowRef
	for _, ref := range candidates {
		valueTerms := e.valueTermsFor(keywords, ref.Source)
		if len(valueTerms) == 0 {
			continue // all keywords are structure terms for this source
		}
		if e.rowMatches(ref, valueTerms, v == Strict) {
			out = append(out, ref)
		}
	}
	return out
}

func (e *Engine) valueTermsFor(keywords []string, source string) []string {
	var out []string
	for _, kw := range keywords {
		structural := true
		for _, tok := range strutil.Tokens(kw) {
			if !e.index.IsAttrToken(tok, source) {
				structural = false
				break
			}
		}
		if !structural {
			out = append(out, kw)
		}
	}
	return out
}

func (e *Engine) rowMatches(ref RowRef, valueTerms []string, requireAll bool) bool {
	row := e.index.Row(ref)
	if row == nil {
		return false
	}
	rowTokens := make(map[string]bool)
	for _, cell := range row {
		for _, tok := range strutil.Tokens(cell) {
			rowTokens[tok] = true
		}
	}
	termPresent := func(term string) bool {
		toks := strutil.Tokens(term)
		if len(toks) == 0 {
			return false
		}
		for _, tok := range toks {
			if !rowTokens[tok] {
				return false
			}
		}
		return true
	}
	if requireAll {
		for _, term := range valueTerms {
			if !termPresent(term) {
				return false
			}
		}
		return true
	}
	for _, term := range valueTerms {
		if termPresent(term) {
			return true
		}
	}
	return false
}
