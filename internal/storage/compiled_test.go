package storage_test

import (
	"testing"

	"udi/internal/datagen"
	"udi/internal/sqlparse"
	"udi/internal/storage"
)

var allOps = []storage.Op{storage.OpEq, storage.OpNe, storage.OpLt, storage.OpLe, storage.OpGt, storage.OpGe, storage.OpLike}

// edgeValues are cells and literals at the corners of the dynamic typing
// and of the ASCII fast paths: signed and negative zeros, the spellings
// of infinity and NaN, integers past the exact fast path and past 2⁵³,
// untrimmed and non-numeric numbers, runes whose lower case changes
// length or leaves ASCII (İ, the Kelvin sign, ſ), non-ASCII spaces,
// invalid UTF-8, and the LIKE wildcards inside values.
var edgeValues = []string{
	"", " ", "0", "-0", "+0", "+5", "5", "5.0", " 5 ", "05", "-5", "+", "-", "--5",
	"nan", "NaN", "-nan", "inf", "-Inf", "+infinity", "in",
	"123456789012345", "-123456789012345", "1234567890123456", "9007199254740993", "9007199254740992",
	"1e3", "1E-3", ".5", "5.", "0x1p-2", "1_000", "1e400", " 12 ", "12 ", "\t12\n", "#5", "#", "\x00#5",
	"abc", "ABC", "Abd", " abc ", "a_c", "a%c", "%", "_", "%%", "a\\%", "v7", "V7X", "v42",
	"İ", "i", "I", "K", "k", "K", "ſ", "s", "S", "ß", "Straße", " 5", "5 ", "\u0085x", "x ",
	"é", "É", "ÉCOLE", "école", "\xff", "a\xffb", "\xc3", "日本", "\x1fk",
}

// eqEval reports whether the compiled predicate agrees with Op.Eval on
// the cell.
func eqEval(c *storage.CPred, op storage.Op, cell, literal string) bool {
	return c.Eval(cell) == op.Eval(cell, literal)
}

// TestCompiledMatchesEvalOnCorpora checks the compiled test against
// Op.Eval on every distinct cell of the five domain corpora, under every
// operator, for each domain's query literals and the edge values. It
// pins the dynamic typing the §7.3 Course observation depends on:
// numeric comparison only when both sides are numbers, case-insensitive
// string comparison otherwise.
func TestCompiledMatchesEvalOnCorpora(t *testing.T) {
	checks := 0
	for _, d := range datagen.AllDomains() {
		cells := map[string]bool{}
		for _, src := range datagen.MustGenerate(d).Corpus.Sources {
			for _, row := range src.Rows {
				for _, cell := range row {
					cells[cell] = true
				}
			}
		}
		for _, e := range edgeValues {
			cells[e] = true
		}
		literals := append([]string(nil), edgeValues...)
		for _, qs := range d.Queries {
			for _, p := range sqlparse.MustParse(qs).Where {
				literals = append(literals, p.Literal)
			}
		}
		for _, lit := range literals {
			for _, op := range allOps {
				c := storage.Compile([]storage.Pred{{Op: op, Literal: lit}})
				for cell := range cells {
					if !eqEval(&c[0], op, cell, lit) {
						t.Fatalf("%s: %q %s %q: compiled %v, Op.Eval %v", d.Name, cell, op, lit, c[0].Eval(cell), op.Eval(cell, lit))
					}
					checks++
				}
			}
		}
	}
	t.Logf("%d (cell, literal, op) checks", checks)
}

// FuzzCompiledPredicate requires the compiled test to equal Op.Eval on
// any (cell, literal, op).
func FuzzCompiledPredicate(f *testing.F) {
	for i, cell := range edgeValues {
		for j, lit := range edgeValues {
			if (i+j)%7 == 0 {
				f.Add(cell, lit, uint8(i+j))
			}
		}
		f.Add(cell, "5", uint8(i))
		f.Add("5", cell, uint8(i))
		f.Add(cell, "%"+cell+"_", uint8(storage.OpLike))
	}
	f.Fuzz(func(t *testing.T, cell, literal string, opn uint8) {
		op := allOps[int(opn)%len(allOps)]
		c := storage.Compile([]storage.Pred{{Op: op, Literal: literal}})
		if !eqEval(&c[0], op, cell, literal) {
			t.Fatalf("%q %s %q: compiled %v, Op.Eval %v", cell, op, literal, c[0].Eval(cell), op.Eval(cell, literal))
		}
	})
}
