package strutil

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Phone-No.", "phone no"},
		{"  phone_no ", "phone no"},
		{"hAddr", "haddr"},
		{"E-Mail__Address", "e mail address"},
		{"pages/rec. no", "pages rec no"},
		{"", ""},
		{"---", ""},
		{"Author(s)", "author s"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("Home_Phone-Number")
	want := []string{"home", "phone", "number"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokens = %v, want %v", got, want)
		}
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classic published examples.
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444444444},
		{"DIXON", "DICKSONX", 0.766666666667},
		{"JELLYFISH", "SMELLYFISH", 0.896296296296},
		{"abc", "abc", 1},
		{"", "abc", 0},
		{"abc", "", 0},
		{"", "", 1},
		{"a", "b", 0},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Jaro(%q,%q) = %.12f, want %.12f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.961111111111},
		{"DIXON", "DICKSONX", 0.813333333333},
		{"abc", "abc", 1},
	}
	for _, c := range cases {
		if got := JaroWinkler(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("JaroWinkler(%q,%q) = %.12f, want %.12f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	j := Jaro("phoneno", "phonenumber")
	jw := JaroWinkler("phoneno", "phonenumber")
	if jw <= j {
		t.Errorf("JaroWinkler (%f) should exceed Jaro (%f) for shared prefix", jw, j)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSim(t *testing.T) {
	if got := LevenshteinSim("abc", "abc"); !almostEq(got, 1) {
		t.Errorf("identical strings: got %f", got)
	}
	if got := LevenshteinSim("abcd", "wxyz"); !almostEq(got, 0) {
		t.Errorf("disjoint strings: got %f", got)
	}
	if got := LevenshteinSim("", ""); !almostEq(got, 1) {
		t.Errorf("empty strings: got %f", got)
	}
}

func TestNGramJaccard(t *testing.T) {
	if got := NGramJaccard("phone", "phone", 3); !almostEq(got, 1) {
		t.Errorf("identical: got %f", got)
	}
	if got := NGramJaccard("abc", "xyz", 3); !almostEq(got, 0) {
		t.Errorf("disjoint: got %f", got)
	}
	if got := NGramJaccard("", "", 3); !almostEq(got, 1) {
		t.Errorf("both empty: got %f", got)
	}
	if got := NGramJaccard("abc", "", 3); !almostEq(got, 0) {
		t.Errorf("one empty: got %f", got)
	}
	// n defaulting
	if got := NGramJaccard("phone", "phone", 0); !almostEq(got, 1) {
		t.Errorf("default n: got %f", got)
	}
}

func TestAttrSimSemantics(t *testing.T) {
	// Same-concept variants should score high.
	high := [][2]string{
		{"phone", "phone-no"},
		{"author", "authors"},
		{"home phone", "hphone"},
		{"year", "Year"},
	}
	for _, p := range high {
		if s := AttrSim(p[0], p[1]); s < 0.7 {
			t.Errorf("AttrSim(%q,%q) = %f, want >= 0.7", p[0], p[1], s)
		}
	}
	// Unrelated attributes should score low.
	low := [][2]string{
		{"year", "price"},
		{"make", "title"},
	}
	for _, p := range low {
		if s := AttrSim(p[0], p[1]); s > 0.6 {
			t.Errorf("AttrSim(%q,%q) = %f, want <= 0.6", p[0], p[1], s)
		}
	}
	// The email-address / address pair from §4.2 must be dampened below the
	// identical-match score by the unmatched token.
	if s := AttrSim("email address", "address"); s >= 1 {
		t.Errorf("AttrSim(email address, address) = %f, want < 1", s)
	}
}

func TestAttrSimEmpty(t *testing.T) {
	for _, c := range []struct{ a, b, what string }{
		{"", "", "both empty"},
		{"a", "", "one empty"},
	} {
		if s := AttrSim(c.a, c.b); s != 0 {
			t.Errorf("%s = %f, want 0", c.what, s)
		}
		na, nb := Compile(c.a), Compile(c.b)
		if s := AttrSimNames(&na, &nb); s != 0 {
			t.Errorf("compiled %s = %f, want 0", c.what, s)
		}
	}
}

// Property: all similarity functions are symmetric and bounded in [0,1].
func TestSimilarityProperties(t *testing.T) {
	funcs := map[string]Func{
		"Jaro":        Jaro,
		"JaroWinkler": JaroWinkler,
		"LevSim":      LevenshteinSim,
		"AttrSim":     AttrSim,
	}
	for name, f := range funcs {
		prop := func(a, b string) bool {
			x, y := f(a, b), f(b, a)
			return x >= -1e-12 && x <= 1+1e-12 && almostEq(x, y)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: identity scores 1 for non-empty strings.
func TestSimilarityIdentity(t *testing.T) {
	prop := func(a string) bool {
		if a == "" {
			return true
		}
		return almostEq(Jaro(a, a), 1) && almostEq(JaroWinkler(a, a), 1) &&
			almostEq(LevenshteinSim(a, a), 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Levenshtein satisfies the triangle inequality and symmetry.
func TestLevenshteinMetric(t *testing.T) {
	prop := func(a, b, c string) bool {
		ab, bc, ac := Levenshtein(a, b), Levenshtein(b, c), Levenshtein(a, c)
		return ab == Levenshtein(b, a) && ac <= ab+bc
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler("home phone number", "phone-no")
	}
}

func BenchmarkAttrSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AttrSim("home phone number", "phone-no")
	}
}
