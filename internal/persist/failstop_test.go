package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"udi/internal/core"
	"udi/internal/schema"
	"udi/internal/wal"
)

// TestStoreRefusesAfterFailedAppend: a WAL append that short-writes
// (the file size limit of the test's own process, lowered for that one
// append) fails its commit, and every later commit on the store is
// refused too, even once the disk has room again. The log holds exactly
// the acknowledged records, so a reopen recovers a system whose snapshot
// bytes equal those of one that applied only the acknowledged feedback.
func TestStoreRefusesAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	_, setup := tinySetup(t)
	sys, st, err := OpenStore(dir, core.Config{}, StoreOptions{CheckpointEvery: 1000}, setup)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fbs := feedbackOps(sys, 3)
	if len(fbs) < 3 {
		t.Fatalf("corpus yielded only %d feedback ops", len(fbs))
	}
	if err := sys.SubmitFeedback(fbs[0]); err != nil {
		t.Fatal(err)
	}

	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(restore)
	lowered := limit
	lowered.Cur = uint64(st.Status().WALBytes) + 20 // room for part of the next frame only
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Fatal(err)
	}
	err = sys.SubmitFeedback(fbs[1])
	restore()
	if !errors.Is(err, wal.ErrFailed) || !errors.Is(err, core.ErrCommitLog) || !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("short-written append: err = %v, want a commit-log error wrapping wal.ErrFailed and EFBIG", err)
	}

	src := schema.MustNewSource("late-arrival", []string{"name", "phone"}, [][]string{{"ada", "555-0100"}})
	for name, commit := range map[string]func() error{
		"feedback": func() error { return sys.SubmitFeedback(fbs[2]) },
		"add":      func() error { _, err := sys.AddSources([]*schema.Source{src}); return err },
		"remove":   func() error { _, err := sys.RemoveSource(sys.Corpus.Sources[0].Name); return err },
	} {
		if err := commit(); !errors.Is(err, wal.ErrFailed) {
			t.Errorf("%s after the failed append: err = %v, want wal.ErrFailed", name, err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Status().WALBytes; got != fi.Size() {
		t.Errorf("status reports %d WAL bytes, the file is %d", got, fi.Size())
	}
	st.Close()

	sys2, st2, err := OpenStore(dir, core.Config{}, StoreOptions{CheckpointEvery: 1000}, noSetup(t))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	control, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := control.SubmitFeedback(fbs[0]); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := Save(&got, sys2); err != nil {
		t.Fatal(err)
	}
	if err := Save(&want, control); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("the reopened store is not the system that applied only the acknowledged feedback")
	}
	if got := st2.Status().Replayed; got != 1 {
		t.Errorf("reopen replayed %d records, want the 1 acknowledged", got)
	}
}

// TestSyncDirMissingDirectory: a directory that cannot be opened is an
// error, not a silently skipped fsync.
func TestSyncDirMissingDirectory(t *testing.T) {
	if err := syncDir(filepath.Join(t.TempDir(), "gone")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("syncDir on a missing directory: err = %v, want one wrapping os.ErrNotExist", err)
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a directory: %v", err)
	}
}
