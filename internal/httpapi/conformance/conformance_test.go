package conformance

import (
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/shard"
)

// TestCoreBackendConformance runs the Backend contract suite over the
// single-process adapter.
func TestCoreBackendConformance(t *testing.T) {
	spec := datagen.People(211)
	spec.NumSources = 16
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	Run(t, httpapi.CoreBackend(sys), sys)
}

// TestShardBackendConformance runs the suite over the in-process
// scatter-gather adapter at several shard counts.
func TestShardBackendConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "shards1", 2: "shards2", 4: "shards4"}[shards], func(t *testing.T) {
			spec := datagen.People(307 + int64(shards))
			spec.NumSources = 16
			c := datagen.MustGenerate(spec)
			sh, err := shard.New(c.Corpus, core.Config{Obs: obs.NewRegistry()}, shard.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := core.Setup(c.Corpus, core.Config{Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			Run(t, httpapi.ShardBackend(sh), oracle)
		})
	}
}
