package reference_test

import (
	"reflect"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/reference"
)

// TestReferenceMatchesProductionOnPaperDomains is the oracle's own check:
// on the five evaluation domains (the corpora TestTable2GoldenRegression
// pins the paper's numbers on) the reference's artifacts must be deeply
// identical to production's. The randomized differential suites in core
// compare in the other direction on small corpora; this one says the
// oracle itself has not drifted where the headline results come from.
func TestReferenceMatchesProductionOnPaperDomains(t *testing.T) {
	domains := datagen.AllDomains()
	if testing.Short() {
		domains = []*datagen.Domain{datagen.People(103)}
	}
	for _, d := range domains {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			c := datagen.MustGenerate(d)
			ref, err := reference.Setup(c.Corpus, reference.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.Setup(c.Corpus, core.Config{Obs: obs.Disabled})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Med.PMed, sys.Med.PMed) {
				t.Error("p-med-schemas differ")
			}
			if !reflect.DeepEqual(ref.Maps, sys.Maps) {
				t.Error("p-mappings differ")
			}
			if !reflect.DeepEqual(ref.Target, sys.Target) {
				t.Error("consolidated schemas differ")
			}
			if !reflect.DeepEqual(ref.ConsMaps, sys.Snapshot().ConsMaps()) {
				t.Error("consolidated p-mappings differ")
			}
		})
	}
}
