package datagen

// Scale corpora: synthetic source sets sized for the setup-scaling
// benchmark (Figure 7 territory, pushed to 10k sources). Unlike the five
// evaluation domains, a scale corpus optimizes for controlled growth
// rather than golden-standard fidelity:
//
//   - a small fixed head of concepts whose name variants cluster (these
//     are the frequent attributes mediation sees, so the mediated schema
//     stays stable as sources are appended — bulk adds ride the fast
//     path);
//   - a long tail of infrequent attribute names composed from a
//     Zipf-skewed stem vocabulary with a uniform suffix, so the distinct
//     vocabulary grows near-linearly with the source count (the O(V²)
//     dense similarity matrix grows quadratically in wall-clock) while
//     shared stems make many tail names near-duplicates of each other;
//   - two rows per source, keeping row ingestion a constant factor.
//
// Generation is fully deterministic given (numSources, seed).

import (
	"fmt"
	"math/rand"

	"udi/internal/schema"
)

// scaleConcept is one head concept of the scale corpus: variant names
// similar enough to form certain edges (pairwise AttrSim above τ+ε) and
// distinct enough from every other concept's to stay below τ−ε.
type scaleConcept struct {
	variants []string
	freq     float64 // probability a source includes the concept; 1 = core
}

var scaleHead = []scaleConcept{
	{variants: []string{"title", "titles", "title name"}, freq: 1},
	{variants: []string{"director", "directors", "director name"}, freq: 1},
	{variants: []string{"runtime", "runtimes", "run time"}, freq: 1},
	{variants: []string{"audience score", "audience scores"}, freq: 1},
	{variants: []string{"release year", "release years"}, freq: 0.45},
	{variants: []string{"box office", "box office gross"}, freq: 0.45},
	{variants: []string{"language", "languages"}, freq: 0.40},
	{variants: []string{"country", "countries"}, freq: 0.40},
}

// scaleStems seeds the tail vocabulary. Stems are drawn Zipf-skewed, so a
// handful dominate and their character n-grams recur across thousands of
// distinct tail names.
var scaleStems = []string{
	"budget", "studio", "genre", "rating", "review", "critic", "award",
	"festival", "distributor", "producer", "writer", "composer", "editor",
	"cinematographer", "sequel", "franchise", "soundtrack", "subtitle",
	"region", "format", "aspect", "resolution", "bitrate", "codec",
	"revenue", "profit", "opening", "weekend", "screening", "theater",
	"ticket", "attendance", "gross", "margin", "license", "imprint",
	"catalog", "archive", "restoration", "remaster",
}

// ScaleCorpus generates a deterministic corpus of numSources synthetic
// sources for the setup-scaling benchmark and the blocked-vs-dense
// differential battery. The distinct attribute vocabulary grows
// near-linearly with numSources (roughly numSources/2 tail names at the
// default shape), so quadratic-in-V setup cost shows as superlinear
// wall-clock growth on a 1k/5k/10k sweep.
func ScaleCorpus(numSources int, seed int64) *schema.Corpus {
	rng := rand.New(rand.NewSource(seed))
	// Suffix range scales with the corpus so every concrete tail name
	// stays far below the θ=0.10 frequency threshold: only head variants
	// are ever frequent, which is what keeps the mediated schema stable.
	nsuffix := numSources / 8
	if nsuffix < 20 {
		nsuffix = 20
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(scaleStems)-1))

	srcs := make([]*schema.Source, 0, numSources)
	for i := 0; i < numSources; i++ {
		attrs := make([]string, 0, 12)
		seen := make(map[string]bool, 12)
		add := func(a string) {
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
		for _, c := range scaleHead {
			if c.freq < 1 && rng.Float64() >= c.freq {
				continue
			}
			add(c.variants[rng.Intn(len(c.variants))])
		}
		for t := 0; t < 3; t++ {
			stem := scaleStems[zipf.Uint64()]
			add(fmt.Sprintf("%s %d", stem, rng.Intn(nsuffix)))
		}
		rows := make([][]string, 2)
		for r := range rows {
			row := make([]string, len(attrs))
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(numSources*4))
			}
			rows[r] = row
		}
		src, err := schema.NewSource(fmt.Sprintf("src%05d", i), attrs, rows)
		if err != nil {
			panic("datagen: scale source: " + err.Error()) // unreachable: names and attrs are valid by construction
		}
		srcs = append(srcs, src)
	}
	c, err := schema.NewCorpus("Scale", srcs)
	if err != nil {
		panic("datagen: scale corpus: " + err.Error()) // unreachable: source names are unique by construction
	}
	return c
}
