package strutil_test

import (
	"math"
	"strings"
	"testing"

	"udi/internal/datagen"
	"udi/internal/strutil"
)

// handNames are the edge cases of the compiled front end: empty and
// separator-only names, one token against several, names past the
// 64-rune stack buffers, and non-ASCII names whose lower-casing or
// rune width differs from ASCII.
var handNames = []string{
	"", "---", " _ ", "phone", "Phone-No.", "home phone number",
	"a b c d e f g h", "email address", "address",
	strings.Repeat("abcdefghij", 8),
	strings.Repeat("abcdefghij", 7) + "x",
	strings.Repeat("ab ", 40),
	"Straße", "strasse", "İndex", "index", "名前", "名 前", "ΣΊΣΥΦΟΣ", "σίσυφος",
	"\xff\xfe", "a b",
}

// checkPairs asserts the compiled scores of every listed ordered pair
// equal the string scores bit for bit.
func checkPairs(t *testing.T, names []string, pairs func(yield func(i, j int))) int {
	t.Helper()
	compiled := make([]strutil.Name, len(names))
	for i, n := range names {
		compiled[i] = strutil.Compile(n)
	}
	n, bad := 0, 0
	pairs(func(i, j int) {
		n++
		got, want := strutil.AttrSimNames(&compiled[i], &compiled[j]), strutil.AttrSim(names[i], names[j])
		if math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
			bad++
			t.Errorf("AttrSimNames(%q, %q) = %v, AttrSim = %v", names[i], names[j], got, want)
		}
	})
	return n
}

func allPairs(n int) func(yield func(i, j int)) {
	return func(yield func(i, j int)) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				yield(i, j)
			}
		}
	}
}

// The compiled front end must score every pair the setup matrix can
// meet exactly as the string definition does.
func TestCompiledAttrSimMatchesString(t *testing.T) {
	t.Run("hand", func(t *testing.T) {
		checkPairs(t, handNames, allPairs(len(handNames)))
	})
	for _, d := range datagen.AllDomains() {
		t.Run(d.Name, func(t *testing.T) {
			c, err := datagen.Generate(d)
			if err != nil {
				t.Fatal(err)
			}
			names := c.Corpus.AllAttrs()
			checkPairs(t, names, allPairs(len(names)))
		})
	}
	t.Run("scale5k", func(t *testing.T) {
		names := datagen.ScaleCorpus(5000, 102).AllAttrs()
		// A fixed stride coprime to the vocabulary size walks at least
		// 1M ordered pairs spread over the whole vocabulary.
		const want = 1 << 20
		v := len(names)
		stride := v*v/want | 1
		for gcd(stride, v*v) != 1 {
			stride += 2
		}
		n := checkPairs(t, names, func(yield func(i, j int)) {
			for k, x := 0, 0; k < want; k, x = k+1, (x+stride)%(v*v) {
				yield(x/v, x%v)
			}
		})
		if n < 1_000_000 {
			t.Fatalf("checked %d pairs, want at least 1M", n)
		}
	})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// FuzzAttrSimCompiled checks, for any two names, that the compiled
// score equals the string score bit for bit, that AttrSim is exactly
// symmetric (intern stores unordered pairs and may answer Sim(a, b) with
// base(b, a)), and that the score lies in [0, 1]. The checked-in seeds
// under testdata cover the hand cases.
func FuzzAttrSimCompiled(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		s := strutil.AttrSim(a, b)
		na, nb := strutil.Compile(a), strutil.Compile(b)
		if c := strutil.AttrSimNames(&na, &nb); math.Float64bits(c) != math.Float64bits(s) {
			t.Fatalf("AttrSimNames(%q, %q) = %v, AttrSim = %v", a, b, c, s)
		}
		if r := strutil.AttrSim(b, a); math.Float64bits(r) != math.Float64bits(s) {
			t.Fatalf("AttrSim(%q, %q) = %v, reversed = %v", a, b, s, r)
		}
		if !(s >= 0 && s <= 1) {
			t.Fatalf("AttrSim(%q, %q) = %v, outside [0, 1]", a, b, s)
		}
	})
}
