// Command udi is the command-line front end of the integration system.
// It answers queries through the typed /v1 client in both of its modes:
// with -remote it talks to a running udiserver (any role that serves
// /v1 — single core, sharded, coordinator, or replica); without it, it
// sets up a system over a synthetic domain, a CSV directory or a
// snapshot, serves that system on an in-process loopback listener, and
// runs the same client code against it. Local and remote output are the
// same by construction.
//
// Usage:
//
//	udi -domain People -show-schema
//	udi -domain Car -query "SELECT make, model FROM Car WHERE price < 15000"
//	udi -domain People -query "SELECT name, phone FROM People" -approach UDI-Consolidated
//	udi -domain Bib -sources 100 -query "SELECT author, title FROM Bib" -top 5
//	udi -remote http://127.0.0.1:8080 -query "SELECT name FROM People"
//	udi -remote http://127.0.0.1:8080 -repl
//
// Setup-side steps run locally before the system is served: -save
// snapshots it, -dot writes its attribute graph, -report writes a
// markdown health report, and -import-batch streams a -data directory in
// group-committed batches. -export and -summarize work on the corpus
// alone and exit before setup:
//
//	udi -domain People -export ./people-tables
//	udi -data ./people-tables -summarize
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"udi/cmd/internal/boot"
	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/csvio"
	"udi/internal/httpapi"
	"udi/internal/persist"
	"udi/internal/report"
	"udi/internal/schema"
)

// config carries the parsed flags into run.
type config struct {
	domain      string
	data        string
	importBatch int
	sources     int
	load        string
	save        string
	dot         string
	report      string
	export      string
	summarize   bool
	remote      string
	query       string
	approach    string
	top         int
	showSchema  bool
	explain     bool
	questions   int
	repl        bool
}

func main() {
	var c config
	flag.StringVar(&c.domain, "domain", "People", "domain to load (Movie|Car|People|Course|Bib)")
	flag.StringVar(&c.data, "data", "", "integrate a directory of CSV files (one table per file) instead of a synthetic domain")
	flag.IntVar(&c.importBatch, "import-batch", 0, "stream the -data directory into the system in group-committed batches of N sources (flat memory) instead of loading it whole")
	flag.IntVar(&c.sources, "sources", 0, "limit the number of sources (0 = full domain)")
	flag.StringVar(&c.query, "query", "", "query to answer (SELECT ... FROM ... [WHERE ...])")
	flag.StringVar(&c.approach, "approach", "UDI", "answering approach (UDI|UDI-Consolidated)")
	flag.IntVar(&c.top, "top", 10, "number of ranked answers to print")
	flag.BoolVar(&c.showSchema, "show-schema", false, "print the probabilistic and consolidated mediated schemas")
	flag.StringVar(&c.save, "save", "", "after setup, snapshot the configured system to this file")
	flag.StringVar(&c.load, "load", "", "skip setup and restore a system snapshot from this file")
	flag.BoolVar(&c.explain, "explain", false, "print the provenance of the top-ranked answer")
	flag.StringVar(&c.dot, "dot", "", "write the attribute graph in Graphviz format to this file")
	flag.BoolVar(&c.repl, "repl", false, "read queries from stdin interactively")
	flag.IntVar(&c.questions, "questions", 0, "print the N correspondences the system most wants feedback on")
	flag.StringVar(&c.report, "report", "", "write a markdown health report of the configured system to this file")
	flag.StringVar(&c.export, "export", "", "write the -domain/-data corpus as one CSV file per source to this directory, then exit")
	flag.BoolVar(&c.summarize, "summarize", false, "print a summary of the -domain/-data corpus, then exit")
	flag.StringVar(&c.remote, "remote", "", "query a running udiserver at this address instead of setting up locally")
	flag.Parse()

	if err := run(context.Background(), c, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "udi:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c config, in io.Reader, out io.Writer) error {
	if _, err := core.ParseApproach(c.approach); err != nil {
		return err
	}
	if c.export != "" || c.summarize {
		if c.remote != "" || c.load != "" {
			return fmt.Errorf("-export and -summarize read a -domain or -data corpus; they do not combine with -remote or -load")
		}
		return exportCorpus(c, out)
	}
	answers := c.query != "" || c.showSchema || c.questions > 0 || c.repl
	if !answers && (c.remote != "" || c.save == "" && c.dot == "" && c.report == "") {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -query, -show-schema, -questions, -repl, -save, -dot, -report, -export or -summarize")
		return nil
	}
	base := c.remote
	if base == "" {
		sys, err := setup(c)
		if err != nil || !answers {
			return err
		}
		addr, stop, err := serveLocal(sys)
		if err != nil {
			return err
		}
		defer stop()
		base = addr
	}
	cl := client.New(base, client.Options{})
	if err := printSchema(ctx, cl, out, c.showSchema, c.questions); err != nil {
		return err
	}
	if c.repl {
		return runREPL(ctx, cl, in, out, c.approach, c.top)
	}
	if c.query == "" {
		return nil
	}
	return printQuery(ctx, cl, out, c.query, c.approach, c.top, c.explain)
}

// serveLocal serves sys on an in-process loopback listener, so local mode
// answers through the same /v1 client as -remote. stop closes the server
// and returns once it has stopped serving.
func serveLocal(sys *core.System) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           httpapi.NewServer(sys, httpapi.Options{}).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		// Serve returns only once Close stops it; a failed accept before
		// that surfaces as the client's transport error.
		srv.Serve(ln)
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// printSchema prints the mediated schemas (with show) and the questions
// the system most wants feedback on (with questions > 0).
func printSchema(ctx context.Context, c *client.Client, out io.Writer, show bool, questions int) error {
	if show {
		sc, err := c.Schema(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "probabilistic mediated schema (%d possible schemas, epoch %d):\n", len(sc.Schemas), sc.Epoch)
		for _, e := range sc.Schemas {
			fmt.Fprintf(out, "  p=%.4f %v\n", e.Prob, e.Clusters)
		}
		fmt.Fprintf(out, "consolidated mediated schema:\n  %v\n", sc.Target)
		if sc.Replication != nil {
			fmt.Fprintf(out, "replica of %s: applied seq %d / primary seq %d\n",
				sc.Replication.Primary, sc.Replication.AppliedSeq, sc.Replication.PrimaryCommittedSeq)
		}
	}
	if questions > 0 {
		resp, err := c.Candidates(ctx, questions)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "the system most wants feedback on these %d correspondences:\n", len(resp.Candidates))
		for i, cd := range resp.Candidates {
			fmt.Fprintf(out, "%2d. %s: does column %q correspond to %v?  (belief %.2f, gain %.3f)\n",
				i+1, cd.Source, cd.SrcAttr, cd.Cluster, cd.Marginal, cd.Uncertainty)
		}
	}
	return nil
}

// printQuery prints the top ranked answers to query and, with explain,
// the provenance of the top answer.
func printQuery(ctx context.Context, c *client.Client, out io.Writer, query, approach string, top int, explain bool) error {
	resp, err := c.Query(ctx, client.QueryRequest{Query: query, Approach: approach, Top: top})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d distinct answers (%d occurrences) via %s at epoch %d\n",
		resp.Distinct, resp.Occurrences, approach, resp.Epoch)
	for i, a := range resp.Answers {
		fmt.Fprintf(out, "%2d. p=%.4f  %v\n", i+1, a.Prob, a.Values)
	}
	if !explain || len(resp.Answers) == 0 {
		return nil
	}
	ex, err := c.Explain(ctx, query, resp.Answers[0].Values)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nprovenance of the top answer %v:\n", resp.Answers[0].Values)
	for i, contrib := range ex.Contributions {
		if i >= 8 {
			fmt.Fprintf(out, "... %d more paths\n", len(ex.Contributions)-8)
			break
		}
		fmt.Fprintf(out, "   %s via schema %d (mass %.4f, %d rows)\n",
			contrib.Source, contrib.SchemaIdx, contrib.Mass, len(contrib.Rows))
	}
	return nil
}

// runREPL reads queries from in, one per line, until EOF. Lines starting
// with '#' are comments; ".schema" prints the mediated schemas;
// ".explain <query>" also prints the top answer's provenance.
func runREPL(ctx context.Context, c *client.Client, in io.Reader, out io.Writer, approach string, top int) error {
	fmt.Fprintln(os.Stderr, "enter SELECT queries, one per line (.schema to inspect, ctrl-D to exit)")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<16), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "udi> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		var err error
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == ".schema":
			err = printSchema(ctx, c, out, true, 0)
		case strings.HasPrefix(line, ".explain "):
			err = printQuery(ctx, c, out, strings.TrimPrefix(line, ".explain "), approach, top, true)
		default:
			err = printQuery(ctx, c, out, line, approach, top, false)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	return scanner.Err()
}

// setup builds the local system and runs the setup-side steps (-save,
// -dot, -report) before it is served.
func setup(c config) (*core.System, error) {
	var sys *core.System
	var err error
	if c.data != "" && c.importBatch > 0 && c.load == "" {
		sys, err = streamImport(c)
	} else {
		sys, err = boot.System(c.domain, c.data, c.load, c.sources, core.Config{})
	}
	if err != nil {
		return nil, err
	}
	if c.load == "" {
		fmt.Fprintf(os.Stderr, "setup done in %v (import %v, p-med-schema %v, p-mappings %v, consolidation %v)\n",
			sys.Timings.Total().Round(1e6), sys.Timings.Import.Round(1e6), sys.Timings.MedSchema.Round(1e6),
			sys.Timings.PMappings.Round(1e6), sys.Timings.Consolidation.Round(1e6))
	}
	if c.save != "" {
		if err := persist.SaveFile(c.save, sys); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", c.save)
	}
	if c.dot != "" {
		if sys.Med.Graph == nil {
			return nil, fmt.Errorf("no attribute graph available (restored snapshots do not keep it)")
		}
		if err := os.WriteFile(c.dot, []byte(sys.Med.Graph.DOT(sys.Corpus.Domain)), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "attribute graph written to %s\n", c.dot)
	}
	if c.report != "" {
		f, err := os.Create(c.report)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(report.Write(f, sys, report.Options{}), f.Close()); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", c.report)
	}
	return sys, nil
}

// streamImport reads the -data directory in batches of -import-batch
// sources: the first batch bootstraps the system and every later batch
// rides the group-committed bulk add (one epoch per batch), so memory
// stays flat however large the directory is.
func streamImport(c config) (*core.System, error) {
	fmt.Fprintf(os.Stderr, "streaming CSV tables from %s in batches of %d...\n", c.data, c.importBatch)
	var sys *core.System
	total := 0
	err := csvio.StreamCorpus(c.data, c.importBatch, func(batch []*schema.Source) error {
		if c.sources > 0 && total+len(batch) > c.sources {
			batch = batch[:c.sources-total]
		}
		if len(batch) == 0 {
			return nil
		}
		total += len(batch)
		if sys == nil {
			corpus, err := schema.NewCorpus(c.domain, batch)
			if err != nil {
				return err
			}
			sys, err = core.Setup(corpus, core.Config{})
			return err
		}
		_, err := sys.AddSources(batch)
		return err
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "integrated %d tables\n", total)
	return sys, nil
}

// exportCorpus writes the -domain/-data corpus as CSV files (-export)
// and prints its summary (-summarize) without setting up a system.
func exportCorpus(c config, out io.Writer) error {
	corpus, err := boot.Corpus(c.domain, c.data, c.sources)
	if err != nil {
		return err
	}
	rows := 0
	attrCount := map[string]int{}
	for _, s := range corpus.Sources {
		rows += len(s.Rows)
		for _, a := range s.Attrs {
			attrCount[a]++
		}
	}
	if c.export != "" {
		if err := csvio.WriteCorpus(corpus, c.export); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d tables (%d rows) to %s\n", len(corpus.Sources), rows, c.export)
	}
	if !c.summarize {
		return nil
	}
	fmt.Fprintf(out, "%d tables, %d rows, %d distinct attribute names\n", len(corpus.Sources), rows, len(attrCount))
	names := make([]string, 0, len(attrCount))
	for a := range attrCount {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool {
		if attrCount[names[i]] != attrCount[names[j]] {
			return attrCount[names[i]] > attrCount[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintln(out, "most frequent attributes:")
	for i, a := range names {
		if i >= 15 {
			fmt.Fprintf(out, "  ... %d more\n", len(names)-15)
			break
		}
		fmt.Fprintf(out, "  %-20s in %d/%d tables (%.0f%%)\n", a, attrCount[a], len(corpus.Sources),
			100*float64(attrCount[a])/float64(len(corpus.Sources)))
	}
	return nil
}
