package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

// TestDeterminismUnderParallelism builds the same corpus with a serial and
// a highly parallel worker pool and requires bit-identical results: the
// same p-med-schemas, the same p-mappings for every source, and the same
// ranked answers. Any map-iteration or worker-ordering dependence in
// forEachSource shows up here as a float or structural diff.
func TestDeterminismUnderParallelism(t *testing.T) {
	c, _ := peopleSystem(t)
	serial, err := Setup(c.Corpus, Config{Parallelism: 1, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Setup(c.Corpus, Config{Parallelism: 8, Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}

	if serial.Med.PMed.Len() != parallel.Med.PMed.Len() {
		t.Fatalf("p-med-schema counts differ: %d vs %d", serial.Med.PMed.Len(), parallel.Med.PMed.Len())
	}
	for i := range serial.Med.PMed.Schemas {
		if serial.Med.PMed.Schemas[i].Key() != parallel.Med.PMed.Schemas[i].Key() {
			t.Fatalf("schema %d differs:\n%v\nvs\n%v", i, serial.Med.PMed.Schemas[i], parallel.Med.PMed.Schemas[i])
		}
		if serial.Med.PMed.Probs[i] != parallel.Med.PMed.Probs[i] {
			t.Fatalf("schema %d prob %v vs %v", i, serial.Med.PMed.Probs[i], parallel.Med.PMed.Probs[i])
		}
	}

	if len(serial.Maps) != len(parallel.Maps) {
		t.Fatalf("p-mapping source counts differ: %d vs %d", len(serial.Maps), len(parallel.Maps))
	}
	for name, spms := range serial.Maps {
		ppms, ok := parallel.Maps[name]
		if !ok {
			t.Fatalf("parallel setup is missing p-mappings for %q", name)
		}
		if !reflect.DeepEqual(spms, ppms) {
			t.Fatalf("p-mappings for %q differ between serial and parallel setup", name)
		}
	}

	// The consolidation stage is parallel too (SchemaP splits the
	// signature pass, forEachSource splits the per-source consolidation):
	// the consolidated schema T and every consolidated p-mapping must be
	// bit-identical at any worker count.
	if !reflect.DeepEqual(serial.Target, parallel.Target) {
		t.Fatalf("consolidated schema differs:\n%v\nvs\n%v", serial.Target, parallel.Target)
	}
	if len(serial.Snapshot().ConsMaps()) != len(parallel.Snapshot().ConsMaps()) {
		t.Fatalf("consolidated p-mapping counts differ: %d vs %d", len(serial.Snapshot().ConsMaps()), len(parallel.Snapshot().ConsMaps()))
	}
	for name, spm := range serial.Snapshot().ConsMaps() {
		ppm, ok := parallel.Snapshot().ConsMaps()[name]
		if !ok {
			t.Fatalf("parallel setup is missing the consolidated p-mapping for %q", name)
		}
		if !reflect.DeepEqual(spm, ppm) {
			t.Fatalf("consolidated p-mapping for %q differs between serial and parallel setup", name)
		}
	}

	for _, qs := range c.Domain.Queries {
		q := sqlparse.MustParse(qs)
		a, err := serial.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.QueryParsed(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Ranked) != len(b.Ranked) {
			t.Fatalf("%q: %d vs %d answers", qs, len(a.Ranked), len(b.Ranked))
		}
		for i := range a.Ranked {
			if !reflect.DeepEqual(a.Ranked[i].Values, b.Ranked[i].Values) || a.Ranked[i].Prob != b.Ranked[i].Prob {
				t.Fatalf("%q answer %d: %v@%v vs %v@%v", qs, i,
					a.Ranked[i].Values, a.Ranked[i].Prob, b.Ranked[i].Values, b.Ranked[i].Prob)
			}
		}
	}
}

// errorSystem builds a bare System whose corpus has n dummy sources —
// just enough state for forEachSource.
func errorSystem(t *testing.T, n, parallelism int) *System {
	t.Helper()
	sources := make([]*schema.Source, n)
	for i := range sources {
		sources[i] = schema.MustNewSource(fmt.Sprintf("s%02d", i), []string{"a"}, nil)
	}
	corpus, err := schema.NewCorpus("test", sources)
	if err != nil {
		t.Fatal(err)
	}
	return &System{Cfg: Config{Parallelism: parallelism}, Corpus: corpus}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the pool's workers and feeder have exited) or times out.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForEachSourceErrorPropagation(t *testing.T) {
	sys := errorSystem(t, 16, 4)
	baseline := runtime.NumGoroutine()

	boom := errors.New("boom")
	var applied atomic.Int32
	err := sys.forEachSource(sys.Corpus.Sources,
		func(src *schema.Source) (any, error) {
			if src.Name >= "s03" {
				return nil, fmt.Errorf("%w: %s", boom, src.Name)
			}
			return src.Name, nil
		},
		func(src *schema.Source, res any) {
			applied.Add(1)
			if res.(string) != src.Name {
				t.Errorf("apply got result %v for source %s", res, src.Name)
			}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	// Only the three healthy sources may ever be applied; results that
	// arrive after the first error must be dropped.
	if n := applied.Load(); n > 3 {
		t.Errorf("%d applies, want at most 3", n)
	}
	waitGoroutines(t, baseline)
}

func TestForEachSourceFirstErrorWinsSerial(t *testing.T) {
	sys := errorSystem(t, 8, 1)
	var calls, applied int
	err := sys.forEachSource(sys.Corpus.Sources,
		func(src *schema.Source) (any, error) {
			calls++
			if src.Name == "s02" {
				return nil, fmt.Errorf("fail at %s", src.Name)
			}
			return nil, nil
		},
		func(src *schema.Source, res any) { applied++ })
	if err == nil || err.Error() != "fail at s02" {
		t.Fatalf("err = %v, want fail at s02", err)
	}
	// Serial mode stops at the first error: sources after s02 never run.
	if calls != 3 {
		t.Errorf("%d fn calls, want 3", calls)
	}
	if applied != 2 {
		t.Errorf("%d applies, want 2", applied)
	}
}

func TestForEachSourceAllErrorsNoLeak(t *testing.T) {
	sys := errorSystem(t, 12, 6)
	baseline := runtime.NumGoroutine()
	err := sys.forEachSource(sys.Corpus.Sources,
		func(src *schema.Source) (any, error) { return nil, errors.New(src.Name) },
		func(src *schema.Source, res any) { t.Errorf("apply called for %s after error", src.Name) })
	if err == nil {
		t.Fatal("no error returned")
	}
	waitGoroutines(t, baseline)
}
