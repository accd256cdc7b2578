// Package storage is the relational-store substrate that replaces MySQL in
// the paper's evaluation (§7.1): it stores each data source as a single
// in-memory table and supports select-project scans with comparison and
// LIKE predicates.
//
// Cells stay strings, typed dynamically at comparison time
// (CompareValues). A scan takes its predicates compiled once per query
// (Compile): the literal's number, folded form, LIKE pattern and index
// key are computed once, and the per-cell test, equal to Op.Eval bit for
// bit, allocates nothing on ASCII cells. Equality predicates push down
// to lazily built per-column postings indexes.
package storage

import (
	"strconv"
	"strings"
)

// CompareValues compares two cell values with MySQL-like dynamic typing:
// if both parse as numbers the comparison is numeric, otherwise it is a
// case-insensitive lexicographic comparison. It returns -1, 0 or 1.
//
// Note the paper observes (§7.3) that numeric comparisons evaluated over
// string-typed data produce incorrect answers for the Source baseline in
// the Course domain; this dynamic fallback reproduces that behaviour.
func CompareValues(a, b string) int {
	fa, oka := parseNumber(a)
	fb, okb := parseNumber(b)
	if oka && okb {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	la, lb := strings.ToLower(strings.TrimSpace(a)), strings.ToLower(strings.TrimSpace(b))
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	default:
		return 0
	}
}

// EqualValues reports value equality under the same dynamic typing as
// CompareValues.
func EqualValues(a, b string) bool { return CompareValues(a, b) == 0 }

func parseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	// Everything ParseFloat accepts starts with a sign, a digit, a point
	// or the first letter of inf or nan. Refusing the rest here spares
	// the error ParseFloat would allocate for every text cell compared.
	if s == "" || !strings.ContainsRune("+-.0123456789iInN", rune(s[0])) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Like reports whether value matches the SQL LIKE pattern, where '%'
// matches any run of characters (including empty) and '_' matches exactly
// one character. Matching is case-insensitive, as in MySQL's default
// collation.
func Like(value, pattern string) bool {
	return likeMatch([]rune(strings.ToLower(value)), []rune(strings.ToLower(pattern)))
}

// likeMatch is an iterative two-pointer wildcard matcher (the classic
// backtrack-on-last-% algorithm), linear in practice.
func likeMatch(v, p []rune) bool {
	vi, pi := 0, 0
	star, vstar := -1, -1
	for vi < len(v) {
		switch {
		// The wildcard case must precede the literal case: a value
		// containing a literal '%' must not consume the pattern's '%'.
		case pi < len(p) && p[pi] == '%':
			star, vstar = pi, vi
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == v[vi]):
			vi++
			pi++
		case star >= 0:
			// Backtrack: let the last % absorb one more rune.
			vstar++
			vi, pi = vstar, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
