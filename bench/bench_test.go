package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"udi/internal/client"
	"udi/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{30, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", got)
	}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
}

// The harness's quartiles must be the ones Python's
// statistics.quantiles(v, n=4) gives, because that is what the bounds in
// BENCHMARK.json were fixed from.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 100}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", got)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	if got := unionNS([][2]int64{{20, 50}, {10, 30}, {70, 80}, {75, 78}}); got != 50 {
		t.Fatalf("unionNS = %d, want 50", got)
	}
	// One request: client ⊃ handler ⊃ backend run ⊃ two overlapping legs
	// that arrived without the request id; plus a handler of another
	// request overlapping in time, which must not adopt anything.
	spans := []span{
		{ID: 0, Parent: -1, Req: 7, Name: "client.query", Start: 0, End: 100},
		{ID: 1, Parent: -1, Req: 7, Name: "httpapi.handle", Start: 10, End: 90},
		{ID: 2, Parent: -1, Req: 7, Name: "backend.run", Start: 20, End: 80},
		{ID: 3, Parent: -1, Name: "shardrpc.leg0", Start: 30, End: 60},
		{ID: 4, Parent: -1, Name: "shardrpc.leg1", Start: 40, End: 70},
		{ID: 5, Parent: -1, Req: 8, Name: "httpapi.other", Start: 5, End: 95},
	}
	link(spans)
	for i, want := range []int{-1, 0, 1, 2, 2, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, want)
		}
	}
	if spans[3].Req != 7 || spans[4].Req != 7 {
		t.Errorf("legs did not inherit the request id: %d %d", spans[3].Req, spans[4].Req)
	}
	self := selfNS(spans)
	for i, want := range []int64{20, 20, 20, 30, 30, 90} {
		if self[i] != want {
			t.Errorf("span %d self = %d, want %d", i, self[i], want)
		}
	}
	dur, selfMS := layerTimes(spans)
	if len(dur["shardrpc.leg"]) != 2 || selfMS["backend.run"][0] != ms(20) {
		t.Errorf("layerTimes folded wrongly: %v %v", dur, selfMS)
	}
}

func quickParams(t *testing.T, seed int64) params {
	return defaultParams(seed, 1, true, t.TempDir())
}

func plannedOps(t *testing.T, seed int64) []op {
	t.Helper()
	p := quickParams(t, seed)
	in, err := carInputs(p)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.Setup(in.corpus, coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops, err := planOps(twin, in, 2*(feedbackPerCycle+1+heldOut))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestInputsAreDeterministicForASeed(t *testing.T) {
	a, b, c := plannedOps(t, 7), plannedOps(t, 7), plannedOps(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed planned different op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds planned the same op list")
	}
	kinds := map[string]int{}
	for _, o := range a {
		kinds[o.Kind]++
	}
	if kinds["feedback"] != 2*feedbackPerCycle || kinds["add"] != 2 || kinds["remove"] != 2*heldOut {
		t.Errorf("op mix = %v", kinds)
	}
	// Query order: a seed and a client number fix it, every round holds
	// every query once, and two clients do not walk in step.
	walk := func(seed int64, c int) []int {
		o, out := newQueryOrder(seed, c, 10), make([]int, 30)
		for i := range out {
			out[i] = o.pick()
		}
		return out
	}
	if !reflect.DeepEqual(walk(102, 0), walk(102, 0)) || reflect.DeepEqual(walk(102, 0), walk(102, 1)) || reflect.DeepEqual(walk(102, 0), walk(103, 0)) {
		t.Error("query order is not a function of exactly (seed, client)")
	}
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for _, qi := range walk(102, 0)[10*round : 10*round+10] {
			seen[qi] = true
		}
		if len(seen) != 10 {
			t.Errorf("round %d holds %d distinct queries, want 10", round, len(seen))
		}
	}
}

// A probability that differs from the oracle's in its last bit must be
// counted as a failed request, not averaged away.
func TestPerturbedProbabilityCountsAsFailed(t *testing.T) {
	p := quickParams(t, 102)
	in, err := carInputs(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildCore(in, p, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	want, err := oracleAnswers(s.sys, in.queries)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(_, qi int, r *client.QueryResponse) bool { return want[qi].matches(r) }
	l := load{base: s.base, queries: in.queries, p: p}
	if tl := tallyOf(l.readers(2, p.Window, exact, nil), p.Window); tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("unperturbed run: %d of %d failed", tl.failed, tl.attempted)
	}
	want[0].answers[0].Prob = math.Nextafter(want[0].answers[0].Prob, 0)
	perClass := 0
	counted := func(c, qi int, r *client.QueryResponse) bool {
		if qi == 0 {
			perClass++ // one client, and readers has returned before this is read
		}
		return exact(c, qi, r)
	}
	samples := l.readers(1, p.Window, counted, nil)
	if tl := tallyOf(samples, p.Window); tl.failed == 0 || tl.failed != perClass {
		t.Errorf("perturbed run: %d failed, want every one of the %d answers to query 0", tl.failed, perClass)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMirrorsTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound > 0.25 {
			t.Errorf("end_to_end %d = %+v, harness has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %d = %+v, harness has %v", i, m, perLayer[i])
		}
	}
}

func recordWith(seed int64, qps ...float64) *record {
	rec := &record{Schema: recordSchema, GOMAXPROCS: 2, Clients: 2, Seed: seed, WindowS: 12}
	for i, v := range qps {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.Name] = scalar(d.Unit, 100)
		}
		m["query_qps"] = scalar("1/s", v)
		rec.Results = append(rec.Results, &result{Workload: "serve.core", Run: i, Correct: true, Attempted: 10, Metrics: m})
	}
	return rec
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec *record) string {
		path := filepath.Join(dir, name)
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", recordWith(102, 100, 101, 99))
	for _, c := range []struct {
		name string
		rec  *record
		code int
		want string
	}{
		{"same", recordWith(102, 100, 101, 99), 0, "within"},
		{"slower", recordWith(102, 70, 71, 69), 1, "worse"},
		{"faster", recordWith(102, 130, 131, 129), 0, "better"},
		{"noisy", recordWith(102, 40, 100, 160), 0, "unresolved"},
		{"other-seed", recordWith(103, 100, 101, 99), 2, ""},
	} {
		var out, errs bytes.Buffer
		code := compareRecords([]string{base, write(c.name+".json", c.rec)}, &out, &errs)
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "query_qps") {
				row = line
			}
		}
		if code != c.code || !strings.HasSuffix(row, c.want) {
			t.Errorf("%s: exit %d, row %q; want exit %d, verdict %q (stderr %q)", c.name, code, row, c.code, c.want, errs.String())
		}
	}
	failing := recordWith(102, 100, 101, 99)
	failing.Results[0].Failed = 1
	var out, errs bytes.Buffer
	if code := compareRecords([]string{base, write("failing.json", failing)}, &out, &errs); code != 1 {
		t.Errorf("a higher failed share exited %d, want 1", code)
	}
}

// TestQuickSmoke runs every workload through both passes at smoke size and
// checks what comes out against the shapes the contract fixes.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errs bytes.Buffer
	if code := run([]string{"-quick", "-out", dir}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if sum.Attempted < 1 {
		t.Errorf("summary: attempted=%d", sum.Attempted)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if m, ok := sum.Metrics[w.name+"/"+d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s %s = %+v (present %v)", w.name, d.Name, m, ok)
			}
		}
		for _, d := range perLayer {
			if m, ok := sum.Metrics[w.name+"/"+d[0]]; !ok || m.Unit != d[1] {
				t.Errorf("%s %s = %+v (present %v)", w.name, d[0], m, ok)
			}
		}
		if !strings.Contains(out.String(), "\n"+w.name+" (plain pass") || !strings.Contains(out.String(), "\n"+w.name+" (traced pass") {
			t.Errorf("%s: a pass was not printed", w.name)
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		var spans []span
		if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
			t.Errorf("%s: span file unreadable or empty (%v)", w.name, err)
		}
	}
	for _, name := range []string{"serve.rpc4/shardrpc.requests_per_query", "serve.rpc4/shardrpc.wire_ratio", "serve.shard4/shard.overhead_ratio", "serve.mixed/persist.commit_ms", "serve.mixed/mutation_p50_ms"} {
		if !(sum.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want it measured", name, sum.Metrics[name].Value)
		}
	}
	rec, err := readRecord(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Go == "" || rec.Commit == "" || rec.NProc < 1 || rec.GOMAXPROCS != 2 || rec.Clients != 2 || rec.Seed != 102 || rec.WindowS != 0.3 || len(rec.Results) != 2*len(workloads) {
		t.Errorf("run record header: %+v with %d results", rec, len(rec.Results))
	}
	for _, r := range rec.Results {
		// A mutation acknowledged after a 0.3 s window is the machine (or the
		// race detector) being slow; anything else that failed is a defect.
		if late := int(r.Diagnostics["mutations_late"].Value); r.Failed != late || r.Correct != (r.Failed == 0) {
			t.Errorf("%s traced=%v: failed=%d of %d (late mutations %d), correct=%v", r.Workload, r.Traced, r.Failed, r.Attempted, late, r.Correct)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "mixed-*")); len(left) != 0 {
		t.Errorf("serve.mixed left data directories behind: %v", left)
	}
}
