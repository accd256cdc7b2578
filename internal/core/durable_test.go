package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"udi/internal/schema"
)

// recordingLog captures the commit path's CommitLog calls, with the
// serving epoch at each call so the tests can order them against
// publish.
type recordingLog struct {
	sys      *System
	seq      uint64
	beginErr error
	calls    []string
	ops      []Op
}

func (l *recordingLog) Begin(ops []Op) (uint64, error) {
	if l.beginErr != nil {
		return 0, l.beginErr
	}
	first := l.seq + 1
	l.seq += uint64(len(ops))
	for _, op := range ops {
		l.calls = append(l.calls, fmt.Sprintf("begin:%s@%d", op.Kind, l.sys.Epoch()))
	}
	l.ops = append(l.ops, ops...)
	return first, nil
}

func (l *recordingLog) Committed(firstSeq uint64, n int) {
	l.calls = append(l.calls, fmt.Sprintf("committed:%d+%d@%d", firstSeq, n, l.sys.Epoch()))
}

// TestCommitLogApplyBeforeLogOrder pins the hook protocol for all three
// mutation kinds: Begin sees only ops that already applied (a rejected
// mutation never reaches the log), it runs before the publish, and
// Committed follows the publish; every op carries a replayable payload.
func TestCommitLogApplyBeforeLogOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sys, err := Setup(randomCorpus(rng), Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := &recordingLog{sys: sys}
	sys.SetCommitLog(log)
	e := sys.Epoch()

	if err := applyAnyFeedback(sys); err != nil {
		t.Fatal(err)
	}
	src := schema.MustNewSource("wal-added", []string{"alpha", "bravo"},
		[][]string{{"v1", "v2"}, {"v3", "v4"}})
	if _, err := sys.AddSources([]*schema.Source{src}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RemoveSource("wal-added"); err != nil {
		t.Fatal(err)
	}

	// One rejected mutation of each kind: none may reach the log or
	// advance the epoch.
	if err := sys.SubmitFeedback(Feedback{Source: "no-such", SrcAttr: "a", MedName: "b"}); err == nil {
		t.Fatal("feedback for unknown source succeeded")
	}
	if _, err := sys.AddSources([]*schema.Source{sys.Corpus.Sources[0]}); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if _, err := sys.RemoveSource("no-such"); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("remove of unknown source: err = %v, want ErrUnknownSource", err)
	}
	if got := sys.Epoch(); got != e+3 {
		t.Errorf("epoch = %d, want %d (three commits, three rejections)", got, e+3)
	}

	want := []string{
		fmt.Sprintf("begin:feedback@%d", e), fmt.Sprintf("committed:1+1@%d", e+1),
		fmt.Sprintf("begin:add_source@%d", e+1), fmt.Sprintf("committed:2+1@%d", e+2),
		fmt.Sprintf("begin:remove_source@%d", e+2), fmt.Sprintf("committed:3+1@%d", e+3),
	}
	if !reflect.DeepEqual(log.calls, want) {
		t.Fatalf("calls = %v, want %v", log.calls, want)
	}

	// The add_source op must carry the full source content for replay.
	add := log.ops[1]
	if add.Add == nil || add.Add.Name != "wal-added" || len(add.Add.Rows) != 2 {
		t.Errorf("add_source op payload = %+v", add.Add)
	}
	if log.ops[2].Remove != "wal-added" {
		t.Errorf("remove_source op payload = %+v", log.ops[2])
	}
}

// TestCommitLogBeginFailureBlocksCommit: when the durability layer
// cannot log the ops, the mutation — of any kind — publishes nothing and
// leaves the writer state and epoch untouched: durability strictly
// precedes visibility.
func TestCommitLogBeginFailureBlocksCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sys, err := Setup(randomCorpus(rng), Config{})
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("disk full")
	sys.SetCommitLog(&recordingLog{sys: sys, beginErr: diskFull})

	src := schema.MustNewSource("wal-added", []string{"alpha", "bravo"}, [][]string{{"v1", "v2"}})
	mutations := map[string]func() error{
		"feedback": func() error { return applyAnyFeedback(sys) },
		"add":      func() error { _, err := sys.AddSources([]*schema.Source{src}); return err },
		"remove":   func() error { _, err := sys.RemoveSource(sys.Corpus.Sources[0].Name); return err },
	}
	for name, mutate := range mutations {
		epoch, snap := sys.Epoch(), sys.Snapshot()
		corpus, med, engine := sys.Corpus, sys.Med, sys.Engine()
		maps := reflect.ValueOf(sys.Maps).Pointer()
		if err := mutate(); !errors.Is(err, diskFull) {
			t.Fatalf("%s: err = %v, want wrapped disk full", name, err)
		}
		if got := sys.Epoch(); got != epoch || sys.Snapshot() != snap {
			t.Errorf("%s: unlogged commit published: epoch %d -> %d", name, epoch, got)
		}
		if sys.Corpus != corpus || sys.Med != med || sys.Engine() != engine ||
			reflect.ValueOf(sys.Maps).Pointer() != maps {
			t.Errorf("%s: unlogged commit changed the writer state", name)
		}
	}

	// Detaching the log restores in-memory commits.
	epoch := sys.Epoch()
	sys.SetCommitLog(nil)
	if err := applyAnyFeedback(sys); err != nil {
		t.Fatal(err)
	}
	if got := sys.Epoch(); got != epoch+1 {
		t.Errorf("epoch = %d, want %d", got, epoch+1)
	}
}
