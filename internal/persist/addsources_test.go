package persist

import (
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/obs"
	"udi/internal/schema"
)

// TestAddSourcesBatchOneAppend: a durable AddSources batch reaches the
// WAL as one wal.Append — one write, one fsync barrier — carrying one
// record per source, and a cold restart replays every record back to the
// acknowledged state. This is the bulk-import half of the group-commit
// contract; feedback batching is covered in groupcommit_test.go.
func TestAddSourcesBatchOneAppend(t *testing.T) {
	spec := datagen.People(41)
	spec.NumSources = 9
	spec.MinRows = 2
	spec.MaxRows = 4
	spec.Entities = 15
	c := datagen.MustGenerate(spec)
	initial, err := schema.NewCorpus(c.Corpus.Domain, c.Corpus.Sources[:6])
	if err != nil {
		t.Fatal(err)
	}
	rest := c.Corpus.Sources[6:]

	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := core.Config{Obs: reg}
	sys, st, err := OpenStore(dir, cfg, StoreOptions{Obs: reg}, func() (*core.System, error) {
		return core.Setup(initial, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddSources(rest); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("wal.append.batches").Value(); got != 1 {
		t.Errorf("wal.append.batches = %d, want 1 (one fsync barrier per batch)", got)
	}
	if got := reg.Counter("wal.append.records").Value(); got != int64(len(rest)) {
		t.Errorf("wal.append.records = %d, want %d", got, len(rest))
	}
	if got := reg.Counter("setup.addsource.batches").Value(); got != 1 {
		t.Errorf("setup.addsource.batches = %d, want 1", got)
	}
	if got := st.Status().WALRecords; got != len(rest) {
		t.Errorf("WAL holds %d records, want %d (one per source)", got, len(rest))
	}
	queries := c.Domain.Queries[:2]
	want := stateSig(t, sys, queries)
	st.Close()

	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{}, noSetup(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Status().Replayed; got != len(rest) {
		t.Errorf("replayed %d mutations, want %d", got, len(rest))
	}
	if got := len(sys2.Corpus.Sources); got != 9 {
		t.Errorf("recovered corpus has %d sources, want 9", got)
	}
	if !sameSig(want, stateSig(t, sys2, queries)) {
		t.Error("recovered state differs from the acknowledged batch state")
	}
}
