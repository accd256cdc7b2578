package storage

import (
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"udi/internal/schema"
)

func TestCompareValuesNumeric(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2", "10", -1}, // numeric, not lexicographic
		{"10", "2", 1},
		{"3.5", "3.50", 0},
		{" 7 ", "7", 0},
		{"abc", "ABD", -1}, // case-insensitive lexicographic
		{"abc", "ABC", 0},
		{"", "", 0},
		{"9", "abc", -1}, // mixed: lexicographic, digits sort before letters
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// parseNumber must accept exactly what strconv.ParseFloat accepts.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		"", " ", "7", " 7 ", "-3.5", "+.5", ".5", "5.", "1e9", "1E-9", "0x1p-2", "0x_1p0", "1_000",
		"inf", "+Inf", "-infinity", "NaN", "nan", "in", "na", "abc", "v7", "ñ1", "_1", "e5", "--1", "1-", "0",
	} {
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		got, ok := parseNumber(s)
		if ok != (err == nil) || (ok && !(got == want || got != got && want != want)) {
			t.Errorf("parseNumber(%q) = %v, %v; ParseFloat gives %v, %v", s, got, ok, want, err)
		}
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		v, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "HELLO", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h__l", false},
		{"hello", "h___lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "", false},
		{"databases", "%data%base%", true},
		{"aaa", "a%a%a", true},
		{"ab", "a%a", false},
		{"x", "_", true},
	}
	for _, c := range cases {
		if got := Like(c.v, c.p); got != c.want {
			t.Errorf("Like(%q,%q) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
}

// Property: a pattern equal to the value (no wildcards) always matches, and
// "%" matches everything.
func TestLikeProperties(t *testing.T) {
	prop := func(v string) bool {
		if !Like(v, "%") {
			return false
		}
		// Escape-free exact value acts as literal unless it contains
		// wildcard runes; skip those inputs.
		for _, r := range v {
			if r == '%' || r == '_' {
				return true
			}
		}
		return Like(v, v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]Op{
		"=": OpEq, "==": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
		"LIKE": OpLike, "like": OpLike,
	}
	for tok, want := range good {
		got, err := ParseOp(tok)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v", tok, got, err)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Error("ParseOp(~) accepted")
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		cell string
		lit  string
		want bool
	}{
		{OpEq, "5", "5.0", true},
		{OpNe, "5", "6", true},
		{OpLt, "2", "10", true},
		{OpLe, "10", "10", true},
		{OpGt, "10", "2", true},
		{OpGe, "1", "2", false},
		{OpLike, "Database Systems", "%database%", true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.cell, c.lit); got != c.want {
			t.Errorf("%v.Eval(%q,%q) = %v, want %v", c.op, c.cell, c.lit, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpLike.String() != "LIKE" || OpNe.String() != "!=" {
		t.Error("Op.String wrong")
	}
}

func testSource() *schema.Source {
	return schema.MustNewSource("people", []string{"name", "age", "city"}, [][]string{
		{"Alice", "30", "Springfield"},
		{"Bob", "25", "Shelbyville"},
		{"Carol", "35", "Springfield"},
	})
}

func TestTableSelect(t *testing.T) {
	tb := NewTable(testSource())
	_, rows, err := tb.SelectIdx([]string{"name"}, []Pred{{Attr: "city", Op: OpEq, Literal: "springfield"}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"Alice"}, {"Carol"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("SelectIdx = %v, want %v", rows, want)
	}
	_, rows, err = tb.SelectIdx([]string{"name", "age"}, []Pred{
		{Attr: "age", Op: OpGt, Literal: "26"},
		{Attr: "city", Op: OpLike, Literal: "spring%"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = [][]string{{"Alice", "30"}, {"Carol", "35"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("conjunction SelectIdx = %v, want %v", rows, want)
	}
}

func TestTableSelectMissingAttr(t *testing.T) {
	tb := NewTable(testSource())
	if _, _, err := tb.SelectIdx([]string{"salary"}, nil); err == nil {
		t.Error("missing projection attribute accepted")
	}
	if _, _, err := tb.SelectIdx([]string{"name"}, []Pred{{Attr: "salary", Op: OpEq, Literal: "1"}}); err == nil {
		t.Error("missing predicate attribute accepted")
	}
}

func TestTableSelectNoPreds(t *testing.T) {
	tb := NewTable(testSource())
	_, rows, err := tb.SelectIdx([]string{"city"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("full scan returned %d rows", len(rows))
	}
}

func BenchmarkTableScan(b *testing.B) {
	rows := make([][]string, 1000)
	for i := range rows {
		rows[i] = []string{"Alice", "30", "Springfield"}
	}
	tb := NewTable(schema.MustNewSource("s", []string{"name", "age", "city"}, rows))
	preds := []Pred{{Attr: "age", Op: OpGt, Literal: "26"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tb.SelectIdx([]string{"name"}, preds); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Like agrees with a regexp reference implementation.
func TestLikeMatchesRegexpReference(t *testing.T) {
	ref := func(value, pattern string) bool {
		var re strings.Builder
		re.WriteString("(?is)^")
		for _, r := range pattern {
			switch r {
			case '%':
				re.WriteString("(?s).*")
			case '_':
				re.WriteString("(?s).")
			default:
				re.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		re.WriteString("$")
		ok, err := regexp.MatchString(re.String(), value)
		if err != nil {
			t.Fatalf("reference regexp: %v", err)
		}
		return ok
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab%_ ")
	randStr := func(n int) string {
		out := make([]rune, rng.Intn(n))
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	for i := 0; i < 3000; i++ {
		v, p := randStr(8), randStr(6)
		// Values may not contain wildcard runes (they would be literals in
		// the value but wildcards in the reference translation of v? no —
		// only the pattern is translated; values are plain strings).
		if got, want := Like(v, p), ref(v, p); got != want {
			t.Fatalf("Like(%q,%q) = %v, reference %v", v, p, got, want)
		}
	}
}

// Property: CompareValues is a total preorder: antisymmetric and
// transitive over a random sample.
func TestCompareValuesOrdering(t *testing.T) {
	vals := []string{"", "0", "1", "2", "10", "-3", "3.5", "03.50", "abc", "ABC", "abd", " 7 ", "7", "x1", "9z"}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := CompareValues(a, b), CompareValues(b, a)
			if ab != -ba {
				t.Errorf("CompareValues(%q,%q)=%d but (%q,%q)=%d", a, b, ab, b, a, ba)
			}
			for _, c := range vals {
				if CompareValues(a, b) <= 0 && CompareValues(b, c) <= 0 && CompareValues(a, c) > 0 {
					t.Errorf("transitivity violated: %q <= %q <= %q but not %q <= %q", a, b, c, a, c)
				}
			}
		}
	}
}

// Property: indexed equality lookups return exactly what a full scan
// returns, for tables above and below the index threshold.
func TestIndexedSelectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 200} {
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = []string{
				[]string{"Alice", "Bob", "Carol"}[rng.Intn(3)],
				[]string{"1", "2", "2.0", " 2 ", "x"}[rng.Intn(5)],
			}
		}
		tb := NewTable(schema.MustNewSource("s", []string{"name", "v"}, rows))
		for _, lit := range []string{"alice", "2", "2.00", "x", "zzz"} {
			preds := []Pred{{Attr: "v", Op: OpEq, Literal: lit}, {Attr: "name", Op: OpNe, Literal: "Bob"}}
			idxs, got, err := tb.SelectIdx([]string{"name", "v"}, preds)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: plain scan.
			var wantIdx []int
			var want [][]string
			for r, row := range rows {
				if OpEq.Eval(row[1], lit) && OpNe.Eval(row[0], "Bob") {
					wantIdx = append(wantIdx, r)
					want = append(want, []string{row[0], row[1]})
				}
			}
			if !reflect.DeepEqual(idxs, wantIdx) || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d lit=%q: indexed result differs from scan", n, lit)
			}
		}
	}
}

func TestIndexedSelectNumericEquality(t *testing.T) {
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{"5.0"}
	}
	rows[7] = []string{"5"}
	rows[9] = []string{" 5 "}
	tb := NewTable(schema.MustNewSource("s", []string{"v"}, rows))
	idxs, _, err := tb.SelectIdx([]string{"v"}, []Pred{{Attr: "v", Op: OpEq, Literal: "5.00"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 100 {
		t.Errorf("numeric equality classes not canonicalized: %d rows", len(idxs))
	}
}

// cellNumber's integer fast path must return parseNumber's result bit
// for bit, negative zero included, and defer everything else to it.
func TestCellNumberMatchesParseNumber(t *testing.T) {
	for _, s := range []string{
		"", "0", "-0", "+0", "7", "+5", "-5", "007", "-007", "123456789012345", "-123456789012345",
		"1234567890123456", "9007199254740993", "+", "-", "--1", "1-", " 7", "7 ", "5.0", "1e3", "x", "٣",
	} {
		want, wok := parseNumber(s)
		got, ok := cellNumber(s)
		if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cellNumber(%q) = %v, %v; parseNumber gives %v, %v", s, got, ok, want, wok)
		}
	}
}
