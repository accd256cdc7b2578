package shard

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"udi/internal/core"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden.json from this build")

// checkGolden pins bytes this build writes against the checked-in ones —
// written by the build before the interchange codecs were unified, so a
// match means a data dir moves between old and new binaries either way.
// After a deliberate format change, rerun with -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGolden -update-golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: bytes changed\nwant %s\n got %s", name, want, got)
	}
}

// goldenSources is a hand-written corpus on an uncertain edge (telephone
// ~ tel), so the snapshot and the journal carry two possible schemas.
func goldenSources() []*schema.Source {
	var out []*schema.Source
	for i, attrs := range [][]string{
		{"telephone", "bravo"}, {"tel", "bravo"}, {"telephone", "tel", "bravo"}, {"telephone", "bravo"}, {"tel", "bravo"},
	} {
		row := make([]string, len(attrs))
		for c := range row {
			row[c] = fmt.Sprintf("v%d", (i+c)%3)
		}
		out = append(out, schema.MustNewSource(fmt.Sprintf("g%02d", i), attrs, [][]string{row}))
	}
	return out
}

// TestGoldenSnapshotAndJournalBytes: one snapshot and one pending journal
// record, byte for byte, and both still load.
func TestGoldenSnapshotAndJournalBytes(t *testing.T) {
	srcs := goldenSources()
	held, last := srcs[:4], srcs[4]
	corpus, err := schema.NewCorpus("golden", held)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Obs: obs.Disabled}
	oracle, err := core.Setup(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot is gzip over JSON; pin the JSON, which is the format.
	var snap bytes.Buffer
	if err := persist.Save(&snap, oracle); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&snap)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden.json", doc)
	// snapshot.v1.json is read-only: the version-1 layout, which also
	// carried consolidated_mappings, must still load and answer both
	// approaches like the oracle.
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot.v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT tel, bravo FROM t")
	for name, doc := range map[string][]byte{"golden": doc, "version-1": v1} {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		zw.Write(doc)
		zw.Close()
		loaded, err := persist.Load(&zipped, cfg)
		if err != nil {
			t.Fatalf("%s snapshot does not load: %v", name, err)
		}
		compareSystems(t, "loaded "+name+" snapshot", loaded, mustSingleShard(t, corpus, cfg), []*sqlparse.Query{q})
	}

	// A mutation that crashes right after its journal write leaves the
	// record on disk; reopening redoes it.
	dir := t.TempDir()
	sh, err := New(corpus, cfg, Options{Shards: 2, DataDir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("crash")
	sh.crashAt = func(stage string) error {
		if stage == "journal" {
			return crash
		}
		return nil
	}
	if _, err := sh.AddSources([]*schema.Source{last}); !errors.Is(err, crash) {
		t.Fatalf("add: %v, want the injected crash", err)
	}
	sh.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "journal.golden.json", journal)
	reopened, err := Open(dir, cfg, Options{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("reopen over the golden journal: %v", err)
	}
	defer reopened.Close()
	if _, err := oracle.AddSources([]*schema.Source{last}); err != nil {
		t.Fatal(err)
	}
	compareSystems(t, "redone golden journal", oracle, reopened, []*sqlparse.Query{q})
}

func mustSingleShard(t *testing.T, c *schema.Corpus, cfg core.Config) *System {
	t.Helper()
	sh, err := New(c, cfg, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}
