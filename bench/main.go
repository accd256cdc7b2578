// Command bench is the repository's benchmark: one harness that builds
// each serving shape in-process on loopback TCP, drives it through
// internal/client, checks every answer against the single-core oracle and
// prints every metric by name. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// e2eDef is one end-to-end metric: what a user of the system sees, with
// the share of the parent's median by which it may worsen before a change
// counts as a regression. BENCHMARK.json mirrors this table.
type e2eDef struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// record is the run record -out writes and -compare reads.
type record struct {
	Schema     string    `json:"schema"`
	Commit     string    `json:"commit"`
	Go         string    `json:"go"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Clients    int       `json:"clients"`
	Seed       int64     `json:"seed"`
	WindowS    float64   `json:"window_s"`
	WarmupS    float64   `json:"warmup_s"`
	Quick      bool      `json:"quick"`
	Results    []*result `json:"results"`
}

const recordSchema = "udi-bench/1"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 102, "seed every input is generated from")
		seconds = fs.Float64("seconds", 20, "length of the timed window")
		trace   = fs.String("trace", "both", "0 = plain pass (end-to-end metrics), 1 = traced pass (per-layer metrics), both")
		cpus    = fs.Int("cpus", 2, "GOMAXPROCS")
		runs    = fs.Int("runs", 1, "times to repeat each workload, for -compare to read a spread from")
		quick   = fs.Bool("quick", false, "smoke run: 0.3 s windows, small corpora")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for the run record, span files and scratch data")
		compare = fs.Bool("compare", false, "compare two run records: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRecords(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || *cpus < 1 || !strings.Contains(" 0 1 both ", " "+*trace+" ") {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	runtime.GOMAXPROCS(*cpus)
	p := defaultParams(*seed, *seconds, *quick, *outDir)
	rec := &record{
		Schema: recordSchema, Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: *cpus, Clients: p.Clients, Seed: p.Seed,
		WindowS: p.Window.Seconds(), WarmupS: p.Warmup.Seconds(), Quick: *quick,
	}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, clients %d, seed %d, window %gs after %gs warm-up\n",
		rec.Commit, rec.Go, rec.NProc, rec.GOMAXPROCS, rec.Clients, rec.Seed, rec.WindowS, rec.WarmupS)
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			for _, pass := range []struct {
				on  bool
				run func(workload, params) (*result, error)
			}{{*trace != "1", plainPass}, {*trace != "0", tracedPass}} {
				if !pass.on {
					continue
				}
				res, err := pass.run(w, p)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				res.Run = r
				rec.Results = append(rec.Results, res)
				printResult(stdout, res)
			}
		}
	}
	if err := writeRecord(filepath.Join(p.OutDir, "run.json"), rec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(summarize(rec.Results, len(selected) > 1))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// commit names the checkout's commit, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// metricOrder lists a result's metric names as they should print: the
// defining tables' order first, anything else by name.
func metricOrder(m map[string]metric) []string {
	var names []string
	seen := map[string]bool{}
	for _, d := range endToEnd {
		if _, ok := m[d.Name]; ok {
			names, seen[d.Name] = append(names, d.Name), true
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d[0]]; ok {
			names, seen[d[0]] = append(names, d[0]), true
		}
	}
	var rest []string
	for name := range m {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func printResult(w io.Writer, r *result) {
	pass := "plain pass, end-to-end metrics"
	if r.Traced {
		pass = "traced pass, per-layer metrics"
	}
	fmt.Fprintf(w, "\n%s (%s) run %d: correct=%v attempted=%d failed=%d\n", r.Workload, pass, r.Run, r.Correct, r.Attempted, r.Failed)
	for _, group := range []map[string]metric{r.Metrics, r.Diagnostics} {
		for _, name := range metricOrder(group) {
			m := group[name]
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%-6d median=%-12.6g q1=%-12.6g q3=%.6g\n", name, m.Value, m.Unit, m.N, m.Median, m.Q1, m.Q3)
		}
		fmt.Fprintln(w, "  --")
	}
}

// summary is the last line of standard output, the shape BENCHMARK.json's
// contract fixes.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds results into the summary: each metric's median over the
// runs made, keyed workload/metric when several workloads ran.
func summarize(results []*result, prefix bool) summary {
	s := summary{Correct: true, Metrics: map[string]summaryValue{}}
	vals := map[string][]float64{}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for name, m := range r.Metrics {
			if prefix {
				name = r.Workload + "/" + name
			}
			vals[name] = append(vals[name], m.Value)
			s.Metrics[name] = summaryValue{Unit: m.Unit}
		}
	}
	for name, v := range vals {
		_, med, _ := quartiles(sorted(v))
		s.Metrics[name] = summaryValue{Value: med, Unit: s.Metrics[name].Unit}
	}
	return s
}
