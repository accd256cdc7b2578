// Command udi sets up a self-configuring data integration system over one
// of the synthetic domains and answers queries against it.
//
// Usage:
//
//	udi -domain People -show-schema
//	udi -domain Car -query "SELECT make, model FROM Car WHERE price < 15000"
//	udi -domain People -query "SELECT name, phone FROM People" -approach UDI-Consolidated
//	udi -domain Bib -sources 100 -query "SELECT author, title FROM Bib" -top 5
//
// With -remote the command is a thin client of a running udiserver (any
// role that serves /v1 — single core, sharded, coordinator, or replica)
// instead of setting up locally:
//
//	udi -remote http://127.0.0.1:8080 -query "SELECT name FROM People"
//	udi -remote http://127.0.0.1:8080 -show-schema
//	udi -remote http://127.0.0.1:8080 -repl
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/csvio"
	"udi/internal/datagen"
	"udi/internal/feedback"
	"udi/internal/persist"
	"udi/internal/report"
	"udi/internal/schema"
	"udi/internal/sqlparse"
)

func main() {
	domain := flag.String("domain", "People", "domain to load (Movie|Car|People|Course|Bib)")
	data := flag.String("data", "", "integrate a directory of CSV files (one table per file) instead of a synthetic domain")
	importBatch := flag.Int("import-batch", 0, "stream the -data directory into the system in group-committed batches of N sources (flat memory) instead of loading it whole")
	sources := flag.Int("sources", 0, "limit the number of sources (0 = full domain)")
	query := flag.String("query", "", "query to answer (SELECT ... FROM ... [WHERE ...])")
	approach := flag.String("approach", "UDI", "answering approach (UDI|UDI-Consolidated)")
	top := flag.Int("top", 10, "number of ranked answers to print")
	showSchema := flag.Bool("show-schema", false, "print the probabilistic and consolidated mediated schemas")
	save := flag.String("save", "", "after setup, snapshot the configured system to this file")
	load := flag.String("load", "", "skip setup and restore a system snapshot from this file")
	explain := flag.Bool("explain", false, "print the provenance of the top-ranked answer")
	dot := flag.String("dot", "", "write the attribute graph in Graphviz format to this file")
	repl := flag.Bool("repl", false, "after setup, read queries from stdin interactively")
	questions := flag.Int("questions", 0, "print the N correspondences the system most wants feedback on")
	reportPath := flag.String("report", "", "write a markdown health report of the configured system to this file")
	remote := flag.String("remote", "", "query a running udiserver at this address instead of setting up locally")
	flag.Parse()

	var err error
	if *remote != "" {
		err = runRemote(*remote, *query, *approach, *top, *showSchema, *explain, *repl, *questions)
	} else {
		err = run(*domain, *data, *importBatch, *sources, *query, *approach, *top, *showSchema, *save, *load, *explain, *dot, *repl, *questions, *reportPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "udi:", err)
		os.Exit(1)
	}
}

// runRemote drives a running udiserver through the typed /v1 client —
// the same client the networked coordinator and replicas use, so error
// envelopes and retry behavior match exactly.
func runRemote(remote, query, approach string, top int, showSchema, explain, repl bool, questions int) error {
	c := client.New(remote, client.Options{})
	ctx := context.Background()
	if showSchema {
		sc, err := c.Schema(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("probabilistic mediated schema (%d possible schemas, epoch %d):\n", len(sc.Schemas), sc.Epoch)
		for _, e := range sc.Schemas {
			fmt.Printf("  p=%.4f %v\n", e.Prob, e.Clusters)
		}
		fmt.Printf("consolidated mediated schema:\n  %v\n", sc.Target)
		if sc.Replication != nil {
			fmt.Printf("replica of %s: applied seq %d / primary seq %d\n",
				sc.Replication.Primary, sc.Replication.AppliedSeq, sc.Replication.PrimaryCommittedSeq)
		}
	}
	if questions > 0 {
		resp, err := c.Candidates(ctx, questions)
		if err != nil {
			return err
		}
		fmt.Printf("the system most wants feedback on these %d correspondences:\n", len(resp.Candidates))
		for i, cd := range resp.Candidates {
			fmt.Printf("%2d. %s: does column %q correspond to %v?  (belief %.2f, gain %.3f)\n",
				i+1, cd.Source, cd.SrcAttr, cd.Cluster, cd.Marginal, cd.Uncertainty)
		}
	}
	if repl {
		return runRemoteREPL(c, approach, top)
	}
	if query == "" {
		if !showSchema && questions == 0 {
			fmt.Fprintln(os.Stderr, "nothing to do: pass -query, -show-schema, -questions or -repl")
		}
		return nil
	}
	return remoteQuery(ctx, c, query, approach, top, explain)
}

func remoteQuery(ctx context.Context, c *client.Client, query, approach string, top int, explain bool) error {
	resp, err := c.Query(ctx, client.QueryRequest{Query: query, Approach: approach, Top: top})
	if err != nil {
		return err
	}
	fmt.Printf("%d distinct answers (%d occurrences) via %s at epoch %d\n",
		resp.Distinct, resp.Occurrences, approach, resp.Epoch)
	for i, a := range resp.Answers {
		fmt.Printf("%2d. p=%.4f  %v\n", i+1, a.Prob, a.Values)
	}
	if explain && len(resp.Answers) > 0 {
		ex, err := c.Explain(ctx, query, resp.Answers[0].Values)
		if err != nil {
			return err
		}
		fmt.Printf("\nprovenance of the top answer %v:\n", resp.Answers[0].Values)
		for i, contrib := range ex.Contributions {
			if i >= 8 {
				fmt.Printf("... %d more paths\n", len(ex.Contributions)-8)
				break
			}
			fmt.Printf("   %s via schema %d (mass %.4f, %d rows)\n",
				contrib.Source, contrib.SchemaIdx, contrib.Mass, len(contrib.Rows))
		}
	}
	return nil
}

// runRemoteREPL is the interactive loop against a remote server.
func runRemoteREPL(c *client.Client, approach string, top int) error {
	ctx := context.Background()
	fmt.Fprintln(os.Stderr, "enter SELECT queries, one per line (.schema to inspect, ctrl-D to exit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<16), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "udi> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == ".schema":
			sc, err := c.Schema(ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			for _, e := range sc.Schemas {
				fmt.Printf("  p=%.4f %v\n", e.Prob, e.Clusters)
			}
			fmt.Printf("consolidated: %v\n", sc.Target)
			continue
		}
		explain := false
		if strings.HasPrefix(line, ".explain ") {
			explain = true
			line = strings.TrimPrefix(line, ".explain ")
		}
		if err := remoteQuery(ctx, c, line, approach, top, explain); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	return scanner.Err()
}

func run(domain, data string, importBatch, sources int, query, approachName string, top int, showSchema bool, save, load string, explain bool, dot string, repl bool, questions int, reportPath string) error {
	approach, err := core.ParseApproach(approachName)
	if err != nil {
		return err
	}
	var sys *core.System
	switch {
	case load != "":
		fmt.Fprintf(os.Stderr, "restoring system from %s...\n", load)
		restored, err := persist.LoadFile(load, core.Config{})
		if errors.Is(err, persist.ErrCorrupt) {
			return fmt.Errorf("snapshot %s is damaged and cannot be restored (re-run setup and -save): %w", load, err)
		}
		if err != nil {
			return err
		}
		sys = restored
	case data != "" && importBatch > 0:
		fmt.Fprintf(os.Stderr, "streaming CSV tables from %s in batches of %d...\n", data, importBatch)
		total := 0
		err := csvio.StreamCorpus(data, importBatch, func(batch []*schema.Source) error {
			if sources > 0 && total+len(batch) > sources {
				batch = batch[:sources-total]
			}
			if len(batch) == 0 {
				return nil
			}
			total += len(batch)
			// The first batch bootstraps the system; every later batch rides
			// the group-committed bulk add (one epoch per batch).
			if sys == nil {
				corpus, err := schema.NewCorpus(domain, batch)
				if err != nil {
					return err
				}
				var serr error
				sys, serr = core.Setup(corpus, core.Config{})
				return serr
			}
			_, err := sys.AddSources(batch)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "integrated %d tables\n", total)
		printTimings(sys)
	case data != "":
		fmt.Fprintf(os.Stderr, "loading CSV tables from %s...\n", data)
		corpus, err := csvio.LoadCorpus(domain, data)
		if err != nil {
			return err
		}
		if sources > 0 && sources < len(corpus.Sources) {
			corpus = corpus.Prefix(sources)
		}
		fmt.Fprintf(os.Stderr, "setting up the integration system over %d tables...\n", len(corpus.Sources))
		sys, err = core.Setup(corpus, core.Config{})
		if err != nil {
			return err
		}
		printTimings(sys)
	default:
		spec := datagen.DomainByName(domain)
		if spec == nil {
			return fmt.Errorf("unknown domain %q", domain)
		}
		if sources > 0 {
			spec.NumSources = sources
		}
		fmt.Fprintf(os.Stderr, "generating %s corpus (%d sources)...\n", spec.Name, spec.NumSources)
		corpus, err := datagen.Generate(spec)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "setting up the integration system...")
		sys, err = core.Setup(corpus.Corpus, core.Config{})
		if err != nil {
			return err
		}
		printTimings(sys)
	}
	if save != "" {
		if err := persist.SaveFile(save, sys); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", save)
	}

	if showSchema {
		fmt.Printf("probabilistic mediated schema (%d possible schemas):\n%s\n", sys.Med.PMed.Len(), sys.Med.PMed)
		fmt.Printf("consolidated mediated schema:\n%s\n", sys.Target)
	}
	if dot != "" {
		if sys.Med.Graph == nil {
			return fmt.Errorf("no attribute graph available (restored snapshots do not keep it)")
		}
		if err := os.WriteFile(dot, []byte(sys.Med.Graph.DOT(sys.Corpus.Domain)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "attribute graph written to %s\n", dot)
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := report.Write(f, sys, report.Options{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", reportPath)
	}
	if questions > 0 {
		sess := feedback.NewSession(sys, nil)
		cands := sess.Candidates(questions)
		fmt.Printf("the system most wants feedback on these %d correspondences:\n", len(cands))
		for i, c := range cands {
			cluster := sys.Med.PMed.Schemas[c.SchemaIdx].Attrs[c.MedIdx]
			fmt.Printf("%2d. %s: does column %q correspond to %s?  (belief %.2f, gain %.3f)\n",
				i+1, c.Source, c.SrcAttr, cluster, c.Marginal, c.Uncertainty)
		}
	}
	if repl {
		return runREPL(sys, approach, top)
	}
	if query == "" {
		if !showSchema && dot == "" && questions == 0 && reportPath == "" {
			fmt.Fprintln(os.Stderr, "nothing to do: pass -query, -show-schema, -dot, -questions, -report or -repl")
		}
		return nil
	}

	q, err := sqlparse.Parse(query)
	if err != nil {
		return err
	}
	rs, err := sys.Run(approach, q)
	if err != nil {
		return err
	}
	fmt.Printf("%d distinct answers (%d occurrences) for %s via %s\n",
		len(rs.Ranked), len(rs.Instances), q, approach)
	for i, a := range rs.Ranked {
		if i >= top {
			fmt.Printf("... %d more\n", len(rs.Ranked)-top)
			break
		}
		fmt.Printf("%2d. p=%.4f  %v\n", i+1, a.Prob, a.Values)
	}
	if explain && len(rs.Ranked) > 0 {
		contribs, err := sys.ExplainAnswer(q, rs.Ranked[0].Values)
		if err != nil {
			return err
		}
		fmt.Printf("\nprovenance of the top answer %v:\n", rs.Ranked[0].Values)
		for i, c := range contribs {
			if i >= 8 {
				fmt.Printf("... %d more paths\n", len(contribs)-8)
				break
			}
			fmt.Printf("   %s\n", c)
		}
	}
	return nil
}

func printTimings(sys *core.System) {
	fmt.Fprintf(os.Stderr, "setup done in %v (import %v, p-med-schema %v, p-mappings %v, consolidation %v)\n",
		sys.Timings.Total().Round(1e6), sys.Timings.Import.Round(1e6), sys.Timings.MedSchema.Round(1e6),
		sys.Timings.PMappings.Round(1e6), sys.Timings.Consolidation.Round(1e6))
}

// runREPL reads queries from stdin, one per line, until EOF. Lines
// starting with '#' are comments; ".schema" prints the mediated schemas;
// ".explain <query>" prints the top answer's provenance.
func runREPL(sys *core.System, approach core.Approach, top int) error {
	fmt.Fprintln(os.Stderr, "enter SELECT queries, one per line (.schema to inspect, ctrl-D to exit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<16), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "udi> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == ".schema":
			fmt.Printf("%s\nconsolidated: %s\n", sys.Med.PMed, sys.Target)
			continue
		}
		wantExplain := false
		if strings.HasPrefix(line, ".explain ") {
			wantExplain = true
			line = strings.TrimPrefix(line, ".explain ")
		}
		q, err := sqlparse.Parse(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			continue
		}
		rs, err := sys.Run(approach, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			continue
		}
		fmt.Printf("%d distinct answers\n", len(rs.Ranked))
		for i, a := range rs.Ranked {
			if i >= top {
				fmt.Printf("... %d more\n", len(rs.Ranked)-top)
				break
			}
			fmt.Printf("%2d. p=%.4f  %v\n", i+1, a.Prob, a.Values)
		}
		if wantExplain && len(rs.Ranked) > 0 {
			contribs, err := sys.ExplainAnswer(q, rs.Ranked[0].Values)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			for i, c := range contribs {
				if i >= 8 {
					fmt.Printf("... %d more paths\n", len(contribs)-8)
					break
				}
				fmt.Printf("   %s\n", c)
			}
		}
	}
	return scanner.Err()
}
