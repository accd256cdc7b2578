// Package matching builds attribute-similarity functions that look beyond
// attribute names. The paper's matcher "considered only similarity of
// attribute names and did not look at values in the corresponding columns
// or other clues" and names a better matcher as the main method to improve
// its results (§7.2); this package supplies that better matcher: an
// instance-based signal measuring how much two attribute names' value
// populations overlap across the corpus, and a hybrid combining it with
// any name-based similarity. The pipeline is matcher-agnostic by design
// (§8), so the hybrid plugs into mediate.Config.Sim / pmapping.Config.Sim
// unchanged.
package matching

import (
	"udi/internal/schema"
	"udi/internal/strutil"
)

// InstanceSim measures attribute similarity by column-value overlap. It
// is immutable after construction and safe for concurrent use without
// locks. It deliberately does no per-pair memoization: the setup pipeline
// caches all pairwise values in the interned similarity matrix
// (internal/intern), and the mutex a shared cache needs would serialize
// every parallel setup worker on the hottest function. Callers outside
// the pipeline that evaluate the same pair repeatedly should layer
// intern.BuildSparse on top.
type InstanceSim struct {
	pools map[string]map[string]bool
}

// NewInstanceSim scans the corpus once, pooling the distinct non-empty
// values observed under each attribute name.
func NewInstanceSim(c *schema.Corpus) *InstanceSim {
	pools := make(map[string]map[string]bool)
	for _, src := range c.Sources {
		for col, attr := range src.Attrs {
			pool := pools[attr]
			if pool == nil {
				pool = make(map[string]bool)
				pools[attr] = pool
			}
			for _, row := range src.Rows {
				if v := row[col]; v != "" {
					pool[v] = true
				}
			}
		}
	}
	return &InstanceSim{pools: pools}
}

// Sim returns the Jaccard coefficient of the two attribute names' value
// pools (0 when either name was never observed). It is safe for
// concurrent use and lock-free.
func (is *InstanceSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return jaccard(is.pools[a], is.pools[b])
}

func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for v := range small {
		if large[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Hybrid combines a name-based similarity with the instance signal: the
// name similarity rules where it is confident, and the instance signal —
// scaled by weight — takes over where names say nothing. Taking the max
// lets value evidence recover pairs like fullname↔name whose spellings
// share nothing, without eroding the name matcher's precision (value
// overlap only reaches the threshold bands when the populations genuinely
// coincide).
func Hybrid(name strutil.Func, instance *InstanceSim, weight float64) strutil.Func {
	return func(a, b string) float64 {
		n := name(a, b)
		v := instance.Sim(a, b) * weight
		if v > n {
			return v
		}
		return n
	}
}
