package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return &rec, nil
}

// plainRuns are the plain passes a record holds for one workload.
func (rec *record) plainRuns(workload string) (runs []*result) {
	for _, r := range rec.Results {
		if r.Workload == workload && !r.Traced {
			runs = append(runs, r)
		}
	}
	return runs
}

func valuesOf(runs []*result, name string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return vals
}

func failedShare(runs []*result) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// verdict judges b against a on one metric by the change in the median as
// a share of a's, signed so that positive is a regression. A row is
// unresolved when either side's own run-to-run spread exceeds the bound;
// otherwise it is worse or better when the change exceeds the bound.
func verdict(d e2eDef, a, b []float64) (medA, medB, sp float64, v string) {
	_, medA, _ = quartiles(sorted(a))
	_, medB, _ = quartiles(sorted(b))
	worse := (medB - medA) / medA
	if d.Better == "higher" {
		worse = -worse
	}
	sp = max(spread(a), spread(b))
	switch {
	case sp > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	case worse < -d.Bound:
		v = "better"
	default:
		v = "within"
	}
	return medA, medB, sp, v
}

// compareRecords prints one row per (workload, end-to-end metric) of two
// run records, a the base and b the candidate, and returns non-zero when
// any row is worse or b failed a larger share of what it attempted.
func compareRecords(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two run records: base.json candidate.json")
		return 2
	}
	a, err := readRecord(files[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecord(files[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if a.GOMAXPROCS != b.GOMAXPROCS || a.Clients != b.Clients || a.Seed != b.Seed || a.WindowS != b.WindowS || a.Quick != b.Quick {
		fmt.Fprintf(stderr, "bench: runs differ in shape and do not compare: cpus %d/%d clients %d/%d seed %d/%d window %gs/%gs quick %v/%v\n",
			a.GOMAXPROCS, b.GOMAXPROCS, a.Clients, b.Clients, a.Seed, b.Seed, a.WindowS, b.WindowS, a.Quick, b.Quick)
		return 2
	}
	fmt.Fprintf(stdout, "base %s (%s)  candidate %s (%s)\n", files[0], a.Commit, files[1], b.Commit)
	fmt.Fprintf(stdout, "%-14s %-13s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "cand/base", "spread", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		ra, rb := a.plainRuns(w.name), b.plainRuns(w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			medA, medB, sp, v := verdict(d, valuesOf(ra, d.Name), valuesOf(rb, d.Name))
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-13s %12.6g %12.6g %9.4f %7.1f%% %6.0f%%  %s\n", w.name, d.Name, medA, medB, medB/medA, 100*sp, 100*d.Bound, v)
		}
		shareA, shareB := failedShare(ra), failedShare(rb)
		v := "within"
		if shareB > shareA {
			v = "worse"
			bad++
		}
		fmt.Fprintf(stdout, "%-14s %-13s %12.6g %12.6g %9s %8s %7s  %s\n", w.name, "failed_share", shareA, shareB, "", "", "", v)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse\n", bad)
		return 1
	}
	return 0
}
