package core_test

import (
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
)

// TestMaxentMetricsAfterCarSetup pins what a Car setup records under
// maxent.*: the p-mapping builds record through handles resolved once per
// build, and the counts are the ones recording each metric by name on
// every solve produced. Every Car group takes the closed form.
func TestMaxentMetricsAfterCarSetup(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := core.Setup(datagen.MustGenerate(datagen.Car(102)).Corpus, core.Config{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"maxent.solves":     4088,
		"maxent.fastpath":   4088,
		"maxent.infeasible": 0,
		"maxent.polished":   0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]struct {
		count int64
		sum   float64
	}{
		"maxent.outcomes": {4088, 8176},
		"maxent.sweeps":   {4088, 0},
		"maxent.residual": {4088, 0},
	} {
		if h := snap.Histograms[name]; h.Count != want.count || h.Sum != want.sum {
			t.Errorf("%s: count %d sum %v, want %d and %v", name, h.Count, h.Sum, want.count, want.sum)
		}
	}
	if h := snap.Histograms["setup.pmapping_source_seconds"]; h.Count != 817 {
		t.Errorf("setup.pmapping_source_seconds: %d observations, want one per source (817)", h.Count)
	}
}
