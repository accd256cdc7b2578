package storage

import (
	"strings"
	"unicode/utf8"
)

// CPred is a WHERE predicate compiled for one query: everything Op.Eval
// would recompute from the literal on every row — its number, its
// trimmed lower-cased form, its LIKE pattern runes, its canonical index
// key — computed once. Its test on a cell gives Op.Eval's result bit for
// bit (FuzzCompiledPredicate and the corpus-wide test pin this) without
// allocating on ASCII cells.
type CPred struct {
	Op Op
	// num and isNum are parseNumber(literal).
	num   float64
	isNum bool
	// low is the literal trimmed and lower-cased, the string branch's
	// operand.
	low string
	// canon is canonicalValue(literal), the equality index's probe key.
	canon string
	// pat is the lower-cased LIKE pattern as runes; when every rune is
	// ASCII, asciiPat is set and patBytes holds the same pattern as bytes.
	pat      []rune
	patBytes []byte
	asciiPat bool
}

// Compile compiles a conjunction of predicates once, for every table
// scan of one query. The predicates' Attr fields are not kept: the
// caller resolves columns per table.
func Compile(preds []Pred) []CPred {
	out := make([]CPred, len(preds))
	for i, p := range preds {
		c := &out[i]
		c.Op = p.Op
		if p.Op == OpLike {
			c.pat = []rune(strings.ToLower(p.Literal))
			c.patBytes = []byte(string(c.pat))
			c.asciiPat = len(c.patBytes) == len(c.pat)
			continue
		}
		c.num, c.isNum = parseNumber(p.Literal)
		c.low = strings.ToLower(strings.TrimSpace(p.Literal))
		if p.Op == OpEq {
			c.canon = canonicalValue(p.Literal)
		}
	}
	return out
}

// Eval reports whether the cell satisfies the predicate: Op.Eval(cell,
// literal) for the literal the predicate was compiled from.
func (c *CPred) Eval(cell string) bool {
	switch c.Op {
	case OpEq:
		return c.compare(cell) == 0
	case OpNe:
		return c.compare(cell) != 0
	case OpLt:
		return c.compare(cell) < 0
	case OpLe:
		return c.compare(cell) <= 0
	case OpGt:
		return c.compare(cell) > 0
	case OpGe:
		return c.compare(cell) >= 0
	case OpLike:
		if c.asciiPat && isASCII(cell) {
			return likeASCII(cell, c.patBytes)
		}
		return likeMatch([]rune(strings.ToLower(cell)), c.pat)
	}
	return false
}

// compare is CompareValues(cell, literal). A literal that is no number
// decides the string branch before the cell is looked at.
func (c *CPred) compare(cell string) int {
	if c.isNum {
		if f, ok := cellNumber(cell); ok {
			switch {
			case f < c.num:
				return -1
			case f > c.num:
				return 1
			default:
				return 0
			}
		}
	}
	return compareFolded(cell, c.low)
}

// cellNumber is parseNumber with an exact fast path for the common cell:
// an optional sign and at most 15 ASCII digits, an integer below 2⁵³ that
// ParseFloat would return exactly (a negative zero included).
func cellNumber(s string) (float64, bool) {
	i := 0
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		i = 1
	}
	if n := len(s) - i; n >= 1 && n <= 15 {
		var v int64
		for j := i; j < len(s); j++ {
			d := s[j] - '0'
			if d > 9 {
				return parseNumber(s)
			}
			v = v*10 + int64(d)
		}
		f := float64(v)
		if s[0] == '-' {
			f = -f
		}
		return f, true
	}
	return parseNumber(s)
}

// compareFolded compares strings.ToLower(strings.TrimSpace(cell)) with
// low, which is already trimmed and lower-cased. An ASCII cell is
// trimmed and folded in place, without allocating; any other cell takes
// the library path, whose Unicode trimming and case mapping differ.
func compareFolded(cell, low string) int {
	if !isASCII(cell) {
		return strings.Compare(strings.ToLower(strings.TrimSpace(cell)), low)
	}
	lo, hi := 0, len(cell)
	for lo < hi && asciiSpace(cell[lo]) {
		lo++
	}
	for hi > lo && asciiSpace(cell[hi-1]) {
		hi--
	}
	s := cell[lo:hi]
	for i := 0; i < len(s) && i < len(low); i++ {
		if a, b := lowerASCII(s[i]), low[i]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(low):
		return -1
	case len(s) > len(low):
		return 1
	}
	return 0
}

// likeASCII is likeMatch over an ASCII value and an ASCII lower-cased
// pattern, folding the value's bytes as it goes.
func likeASCII(v string, p []byte) bool {
	vi, pi := 0, 0
	star, vstar := -1, -1
	for vi < len(v) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, vstar = pi, vi
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == lowerASCII(v[vi])):
			vi++
			pi++
		case star >= 0:
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

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// asciiSpace reports the ASCII bytes strings.TrimSpace trims.
func asciiSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}
