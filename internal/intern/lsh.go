// LSH banding over attribute names. Each name is read in the canonical
// form strutil.AttrSim compares (normalized, separators stripped), which
// the vocabulary compiles once per name. The canonical form is minhashed
// over character 3-grams, and the minhash vector is cut into bands: two
// names that share any band key become a candidate pair. With
// lshHashes=8 signatures in lshBands=4 bands of 2 rows, a pair with
// 3-gram Jaccard similarity s collides with probability 1-(1-s²)⁴ —
// near-certain for the close spelling variants attribute matching cares
// about, near-zero for unrelated names — so the candidate set stays
// linear in the vocabulary while catching the pairs whose base
// similarity is worth precomputing.
//
// Banding is a recall heuristic only: correctness never depends on it,
// because Matrix.Sim falls back to the exact base function (memoized)
// for any pair the blocking missed.
package intern

import "udi/internal/strutil"

const (
	lshHashes = 8                   // minhash signature length
	lshRows   = 2                   // minhash rows per band
	lshBands  = lshHashes / lshRows // band count (4)

	// maxBucketFan caps pair enumeration inside one band bucket. A bucket
	// this crowded means a degenerate signature (many near-identical or
	// empty canonical names); enumerating its O(k²) pairs would
	// reintroduce the quadratic cost the blocking exists to avoid, so the
	// bucket is skipped and any of its pairs that the pipeline actually
	// reads go through the exact memoized fallback instead.
	maxBucketFan = 64
)

var lshSeeds [lshHashes]uint64

func init() {
	for i := range lshSeeds {
		lshSeeds[i] = mix64(0x9e3779b97f4a7c15 * uint64(i+1))
	}
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap invertible scrambler used
// both to derive the per-function minhash seeds and to combine band rows
// into bucket keys.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// bandKeys returns the lshBands bucket keys for a compiled name: minhash
// the canonical form's character 3-grams under lshHashes seeded hash
// functions, then hash each band of lshRows minima (salted with the band
// index so identical minima in different bands land in different
// buckets). Banding over the canonical form makes "Zip-Code" and
// "zip code" share a signature. Deterministic: depends only on the name.
func bandKeys(name *strutil.Name) [lshBands]uint64 {
	c := name.Canon()
	var mh [lshHashes]uint64
	for i := range mh {
		mh[i] = ^uint64(0)
	}
	consume := func(g string) {
		h := fnv64(g)
		for i := 0; i < lshHashes; i++ {
			if v := mix64(h ^ lshSeeds[i]); v < mh[i] {
				mh[i] = v
			}
		}
	}
	if len(c) < 3 {
		// Short names have a single "gram": the whole string (the same
		// degenerate case strutil's n-gram tokenizer handles).
		consume(c)
	} else {
		for i := 0; i+3 <= len(c); i++ {
			consume(c[i : i+3])
		}
	}
	var keys [lshBands]uint64
	for b := 0; b < lshBands; b++ {
		k := mix64(0xd1b54a32d192ed03 * uint64(b+1))
		for r := 0; r < lshRows; r++ {
			k = mix64(k ^ mh[b*lshRows+r])
		}
		keys[b] = k
	}
	return keys
}
