package strutil

import (
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// Name is an attribute name compiled once for repeated AttrSim scoring.
// It keeps only what AttrSim derives from one name: the normalized
// tokens concatenated (exactly the separator-free form AttrSim's
// whole-name comparison reads) and each token's end offset in them.
type Name struct {
	runes []rune
	ends  []int32
}

// Compile normalizes s once and splits it into the tokens AttrSim
// compares.
func Compile(s string) Name {
	norm := Normalize(s)
	fields := strings.Fields(norm)
	n := Name{
		runes: make([]rune, 0, utf8.RuneCountInString(norm)-max(len(fields)-1, 0)),
		ends:  make([]int32, 0, len(fields)),
	}
	for _, f := range fields {
		for _, r := range f {
			n.runes = append(n.runes, r)
		}
		n.ends = append(n.ends, int32(len(n.runes)))
	}
	return n
}

// Canon returns the canonical form: the normalized name with its
// separators stripped.
func (n *Name) Canon() string { return string(n.runes) }

// token returns the runes of the k-th token.
func (n *Name) token(k int) []rune {
	start := int32(0)
	if k > 0 {
		start = n.ends[k-1]
	}
	return n.runes[start:n.ends[k]]
}

// AttrSimNames is AttrSim over compiled names: with na, nb :=
// Compile(a), Compile(b), AttrSimNames(&na, &nb) equals AttrSim(a, b)
// bit for bit.
func AttrSimNames(a, b *Name) float64 {
	if len(a.runes) == 0 || len(b.runes) == 0 {
		return 0
	}
	whole := jaroWinkler(a.runes, b.runes)
	hybrid := 1.0
	// Equal runes and equal token ends are equal normalized names.
	if !slices.Equal(a.runes, b.runes) || !slices.Equal(a.ends, b.ends) {
		hybrid = tokenHybrid(len(a.ends), len(b.ends), func(i, j int) float64 {
			return jaroWinkler(a.token(i), b.token(j))
		})
	}
	return math.Max(whole, hybrid)
}
