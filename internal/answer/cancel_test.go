package answer

import (
	"context"
	"errors"
	"testing"
	"time"

	"udi/internal/obs"
	"udi/internal/sqlparse"
)

// TestAnswerPMedCanceledContext checks that an already-canceled context
// stops the query before any scanning, surfaces context.Canceled to the
// caller, and is counted in query.canceled.
func TestAnswerPMedCanceledContext(t *testing.T) {
	corpus, in := figure1Fixture()
	reg := obs.NewRegistry()
	e := NewEngine(corpus)
	e.SetObs(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := sqlparse.MustParse("SELECT name, phone FROM people")
	if _, err := e.ScanPMed(ctx, in, q, CountOnly); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := reg.Snapshot().Counters["query.canceled"]; got != 1 {
		t.Errorf("query.canceled = %d, want 1", got)
	}
}

// TestAnswerPMedDeadlineExceeded checks that an expired deadline surfaces
// context.DeadlineExceeded (the error the HTTP layer maps to 504).
func TestAnswerPMedDeadlineExceeded(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := sqlparse.MustParse("SELECT name, phone FROM people")
	if _, err := e.ScanPMed(ctx, in, q, CountOnly); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAnswerPMedBackgroundUnaffected pins down that the context plumbing
// changes nothing for an unconstrained query: Background and the
// context-free wrapper agree.
func TestAnswerPMedBackgroundUnaffected(t *testing.T) {
	corpus, in := figure1Fixture()
	e := NewEngine(corpus)
	q := sqlparse.MustParse("SELECT name, phone FROM people")
	rs1, err := e.AnswerPMed(in, q)
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.ScanPMed(context.Background(), in, q, CountOnly)
	if err != nil {
		t.Fatal(err)
	}
	rs2 := Rank(part)
	if len(rs1.Ranked) != len(rs2.Ranked) {
		t.Fatalf("ranked %d vs %d", len(rs1.Ranked), len(rs2.Ranked))
	}
	for i := range rs1.Ranked {
		if rs1.Ranked[i].Prob != rs2.Ranked[i].Prob {
			t.Fatalf("answer %d prob %f vs %f", i, rs1.Ranked[i].Prob, rs2.Ranked[i].Prob)
		}
	}
}
