// Package strutil provides the string-similarity substrate used for
// attribute matching. It replaces the SecondString toolkit used in the
// paper: Jaro, Jaro-Winkler, Levenshtein, n-gram Jaccard, and a token-set
// hybrid are implemented from their published definitions.
//
// All similarity functions return values in [0, 1] where 1 means identical.
package strutil

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"unicode"
)

// Normalize canonicalizes an attribute name for comparison: lower-cases it,
// converts separators (underscore, dash, slash, dot) to single spaces, trims
// surrounding punctuation and collapses repeated whitespace. It keeps
// alphanumeric runes so "Phone-No." and "phone no" normalize identically.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // trims leading separators
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// Tokens splits a normalized string into its whitespace-separated tokens.
func Tokens(s string) []string {
	return strings.Fields(Normalize(s))
}

// Jaro returns the Jaro similarity between two strings, following the
// standard definition: matches within a window of
// max(len1,len2)/2 - 1, transpositions counted as half-swaps.
func Jaro(s1, s2 string) float64 {
	return jaro([]rune(s1), []rune(s2))
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard scaling
// factor p = 0.1 and a common-prefix length capped at 4. This is the
// similarity the paper uses for pairwise attribute comparison (§7.1).
func JaroWinkler(s1, s2 string) float64 {
	return jaroWinkler([]rune(s1), []rune(s2))
}

// jaroWinkler is the one Jaro-Winkler loop: the string functions and the
// compiled-name path both score through it.
func jaroWinkler(r1, r2 []rune) float64 {
	const (
		prefixScale = 0.1
		maxPrefix   = 4
	)
	j := jaro(r1, r2)
	prefix := 0
	for prefix < len(r1) && prefix < len(r2) && prefix < maxPrefix && r1[prefix] == r2[prefix] {
		prefix++
	}
	return j + float64(prefix)*prefixScale*(1-j)
}

// flagWords is the rune (or token) count per side up to which jaro and
// tokenHybrid keep their flags on the stack; attribute names are far
// shorter.
const flagWords = 64

func jaro(r1, r2 []rune) float64 {
	if slices.Equal(r1, r2) {
		return 1
	}
	n1, n2 := len(r1), len(r2)
	if n1 == 0 || n2 == 0 {
		return 0
	}
	window := max(n1, n2)/2 - 1
	if window < 0 {
		window = 0
	}
	var flagBuf [2 * flagWords]bool
	matched := flags(flagBuf[:], n1+n2)
	m1, m2 := matched[:n1], matched[n1:]
	matches := 0
	for i := 0; i < n1; i++ {
		lo := max(0, i-window)
		hi := min(n2-1, i+window)
		for j := lo; j <= hi; j++ {
			if !m2[j] && r1[i] == r2[j] {
				m1[i], m2[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < n1; i++ {
		if !m1[i] {
			continue
		}
		for !m2[j] {
			j++
		}
		if r1[i] != r2[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(n1) + m/float64(n2) + (m-t)/m) / 3
}

// flags returns n cleared flags, in buf when it is large enough.
func flags(buf []bool, n int) []bool {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]bool, n)
}

// Levenshtein returns the edit distance between s1 and s2 (unit insert,
// delete, substitute costs) using a two-row dynamic program.
func Levenshtein(s1, s2 string) int {
	r1, r2 := []rune(s1), []rune(s2)
	if len(r1) == 0 {
		return len(r2)
	}
	if len(r2) == 0 {
		return len(r1)
	}
	prev := make([]int, len(r2)+1)
	cur := make([]int, len(r2)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(r1); i++ {
		cur[0] = i
		for j := 1; j <= len(r2); j++ {
			cost := 1
			if r1[i-1] == r2[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(r2)]
}

// LevenshteinSim converts edit distance to a similarity in [0,1]:
// 1 - dist/maxlen.
func LevenshteinSim(s1, s2 string) float64 {
	if s1 == s2 {
		return 1
	}
	n := max(len([]rune(s1)), len([]rune(s2)))
	if n == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(s1, s2))/float64(n)
}

// NGramJaccard returns the Jaccard coefficient of the two strings'
// character n-gram sets. Strings shorter than n are padded conceptually by
// treating the whole string as one gram.
func NGramJaccard(s1, s2 string, n int) float64 {
	if n <= 0 {
		n = 3
	}
	g1 := ngrams(s1, n)
	g2 := ngrams(s2, n)
	if len(g1) == 0 && len(g2) == 0 {
		return 1
	}
	if len(g1) == 0 || len(g2) == 0 {
		return 0
	}
	inter := 0
	for g := range g1 {
		if g2[g] {
			inter++
		}
	}
	union := len(g1) + len(g2) - inter
	return float64(inter) / float64(union)
}

func ngrams(s string, n int) map[string]bool {
	r := []rune(s)
	grams := make(map[string]bool)
	if len(r) == 0 {
		return grams
	}
	if len(r) < n {
		grams[string(r)] = true
		return grams
	}
	for i := 0; i+n <= len(r); i++ {
		grams[string(r[i:i+n])] = true
	}
	return grams
}

// Func is a pairwise string-similarity function in [0,1].
type Func func(a, b string) float64

// AttrSim is the default attribute-name similarity: names are normalized,
// then scored as the maximum of (1) Jaro-Winkler over the separator-free
// concatenations and (2) a greedy token-aligned hybrid (the SecondString
// recipe). The concatenated comparison keeps "phone" close to "phone-no";
// the hybrid keeps multi-token names comparable. Identical normalized names
// score 1 exactly.
//
// AttrSim normalizes both names on every call. It is the definition:
// AttrSimNames scores the same names compiled once and must agree with it
// bit for bit.
func AttrSim(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	ca, cb := strings.ReplaceAll(na, " ", ""), strings.ReplaceAll(nb, " ", "")
	if ca == "" || cb == "" {
		return 0
	}
	whole := JaroWinkler(ca, cb)
	hybrid := 1.0
	if na != nb {
		ta, tb := strings.Fields(na), strings.Fields(nb)
		hybrid = tokenHybrid(len(ta), len(tb), func(i, j int) float64 {
			return JaroWinkler(ta[i], tb[j])
		})
	}
	return math.Max(whole, hybrid)
}

// tokenHybrid aligns two token lists of lengths na and nb (both > 0)
// greedily by descending pairwise similarity sim(i, j), and averages the
// aligned scores over the larger token count. Unmatched tokens contribute
// zero. This makes "home phone" vs "phone" score high while
// "email address" vs "address" is dampened by the unmatched token.
func tokenHybrid(na, nb int, sim func(i, j int) float64) float64 {
	if na == 1 && nb == 1 {
		return sim(0, 0)
	}
	var pairBuf [16]tokenPair
	pairs := pairBuf[:0]
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pairs = append(pairs, tokenPair{i, j, sim(i, j)})
		}
	}
	// Greedy maximum alignment: repeatedly take the best remaining pair.
	slices.SortFunc(pairs, comparePairs)
	var usedBuf [2 * flagWords]bool
	used := flags(usedBuf[:], na+nb)
	usedA, usedB := used[:na], used[na:]
	total := 0.0
	for _, p := range pairs {
		if usedA[p.i] || usedB[p.j] {
			continue
		}
		usedA[p.i], usedB[p.j] = true, true
		total += p.sim
	}
	// Average over the larger token count so extra tokens dilute the score.
	return total / float64(max(na, nb))
}

type tokenPair struct {
	i, j int
	sim  float64
}

// comparePairs orders by descending similarity with deterministic
// tie-breaking on indices, a total order, so the alignment does not
// depend on iteration order or on the sort algorithm.
func comparePairs(a, b tokenPair) int {
	return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
}
