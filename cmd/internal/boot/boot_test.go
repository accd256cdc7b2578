package boot

import (
	"os"
	"path/filepath"
	"testing"

	"udi/internal/core"
	"udi/internal/csvio"
	"udi/internal/datagen"
	"udi/internal/persist"
)

func TestSystemDomain(t *testing.T) {
	sys, err := System("People", "", "", 12, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Corpus.Sources) != 12 {
		t.Errorf("sources = %d", len(sys.Corpus.Sources))
	}
	if _, err := System("Atlantis", "", "", 0, core.Config{}); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestSystemData(t *testing.T) {
	dir := t.TempDir()
	spec := datagen.People(103)
	spec.NumSources = 10
	c := datagen.MustGenerate(spec)
	if err := csvio.WriteCorpus(c.Corpus, dir); err != nil {
		t.Fatal(err)
	}
	sys, err := System("csv", dir, "", 5, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Corpus.Sources) != 5 {
		t.Errorf("sources = %d", len(sys.Corpus.Sources))
	}
	// The prefix rule keeps the first sources in directory order.
	corpus, err := Corpus("csv", dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range corpus.Sources {
		if src.Name != c.Corpus.Sources[i].Name {
			t.Errorf("source %d = %s, want %s", i, src.Name, c.Corpus.Sources[i].Name)
		}
	}
	if _, err := System("csv", filepath.Join(dir, "missing"), "", 0, core.Config{}); err == nil {
		t.Error("missing data dir accepted")
	}
}

func TestSystemSnapshot(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 10
	c := datagen.MustGenerate(spec)
	sys, err := core.Setup(c.Corpus, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.udi.gz")
	if err := persist.SaveFile(path, sys); err != nil {
		t.Fatal(err)
	}
	restored, err := System("", "", path, 0, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Corpus.Sources) != 10 {
		t.Errorf("sources = %d", len(restored.Corpus.Sources))
	}
	if _, err := System("", "", filepath.Join(dir, "none.gz"), 0, core.Config{}); err == nil {
		t.Error("missing snapshot accepted")
	}
	damaged := filepath.Join(dir, "damaged.udi.gz")
	if err := os.WriteFile(damaged, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := System("", "", damaged, 0, core.Config{}); err == nil {
		t.Error("damaged snapshot accepted")
	}
}
