package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udi/cmd/internal/boot"
	"udi/internal/core"
	"udi/internal/csvio"
	"udi/internal/datagen"
	"udi/internal/httpapi"
)

// people is a 12-source People setup answering three ranked answers.
func people() config {
	return config{domain: "People", sources: 12, approach: "UDI", top: 3}
}

// runOut runs c with empty stdin and returns its stdout.
func runOut(t *testing.T, c config) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), c, strings.NewReader(""), &out)
	return out.String(), err
}

// writePeopleCSV exports a 10-source People corpus to a fresh directory.
func writePeopleCSV(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	spec := datagen.People(seed)
	spec.NumSources = 10
	if err := csvio.WriteCorpus(datagen.MustGenerate(spec).Corpus, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunUnknownDomain(t *testing.T) {
	c := people()
	c.domain, c.query = "Nope", "SELECT name FROM People"
	if _, err := runOut(t, c); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestRunQueryAndSchema(t *testing.T) {
	c := people()
	c.query, c.showSchema, c.explain, c.questions = "SELECT name FROM People", true, true, 2
	out, err := runOut(t, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"probabilistic mediated schema (",
		"consolidated mediated schema:",
		"the system most wants feedback on these 2 correspondences:",
		"distinct answers (",
		" 1. p=",
		"provenance of the top answer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestLocalMatchesRemote pins the one answer path: local mode serves its
// system in process and answers through the /v1 client, so its stdout is
// byte-identical to -remote against a server over the same corpus.
func TestLocalMatchesRemote(t *testing.T) {
	c := people()
	c.query, c.explain, c.showSchema, c.questions = "SELECT name, phone FROM People", true, true, 3
	local, err := runOut(t, c)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := boot.System("People", "", "", 12, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(sys, httpapi.Options{}).Handler())
	defer srv.Close()
	c.remote = srv.URL
	remote, err := runOut(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if local != remote {
		t.Errorf("local and remote output differ:\n--- local\n%s\n--- remote\n%s", local, remote)
	}
	if !strings.Contains(local, "provenance of the top answer") {
		t.Errorf("no explain output:\n%s", local)
	}
}

func TestRunREPL(t *testing.T) {
	var out bytes.Buffer
	c := people()
	c.repl = true
	in := strings.NewReader("# a comment\n.schema\nSELECT name FROM People\ngarbage\n.explain SELECT name FROM People\n")
	if err := run(context.Background(), c, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "distinct answers ("); n != 2 {
		t.Errorf("%d answered queries, want 2:\n%s", n, got)
	}
	for _, want := range []string{"consolidated mediated schema:", "provenance of the top answer"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestRunBadQuery(t *testing.T) {
	c := people()
	c.query = "garbage"
	if _, err := runOut(t, c); err == nil {
		t.Error("bad query accepted")
	}
}

func TestRunBadApproach(t *testing.T) {
	c := people()
	c.query, c.approach = "SELECT name FROM t", "Bogus"
	if _, err := runOut(t, c); err == nil {
		t.Error("bad approach accepted")
	}
}

func TestRunSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "sys.udi.gz")
	c := people()
	c.save = snap
	if _, err := runOut(t, c); err != nil {
		t.Fatal(err)
	}
	c = config{load: snap, approach: "UDI", top: 3, query: "SELECT name FROM People"}
	out, err := runOut(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " 1. p=") {
		t.Errorf("restored system answered nothing:\n%s", out)
	}
	c.load = filepath.Join(dir, "missing.gz")
	if _, err := runOut(t, c); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestRunCSVData(t *testing.T) {
	dir := writePeopleCSV(t, 103)
	c := config{domain: "csv", data: dir, approach: "UDI", top: 3, query: "SELECT name FROM t"}
	if _, err := runOut(t, c); err != nil {
		t.Fatal(err)
	}
	c.data = filepath.Join(dir, "nope")
	if _, err := runOut(t, c); err == nil {
		t.Error("missing CSV directory accepted")
	}
}

func TestRunDOTExport(t *testing.T) {
	c := people()
	c.dot = filepath.Join(t.TempDir(), "graph.dot")
	if _, err := runOut(t, c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.dot)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty DOT file")
	}
}

func TestRunReport(t *testing.T) {
	c := people()
	c.report = filepath.Join(t.TempDir(), "report.md")
	if _, err := runOut(t, c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.report)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty report")
	}
}

func TestRunCSVStreamingImport(t *testing.T) {
	dir := writePeopleCSV(t, 109)
	whole, err := runOut(t, config{domain: "csv", data: dir, approach: "UDI", top: 3, query: "SELECT name FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ batch, sources int }{
		{3, 0},   // batched streaming import serves queries like the whole-directory load
		{100, 0}, // a batch larger than the corpus degenerates to one Setup
		{4, 6},   // the -sources cap still applies to the streamed total
	} {
		c := config{domain: "csv", data: dir, importBatch: tc.batch, sources: tc.sources, approach: "UDI", top: 3, query: "SELECT name FROM t"}
		out, err := runOut(t, c)
		if err != nil {
			t.Fatalf("batch %d, sources %d: %v", tc.batch, tc.sources, err)
		}
		if !strings.Contains(out, " 1. p=") {
			t.Errorf("batch %d, sources %d answered nothing:\n%s", tc.batch, tc.sources, out)
		}
		// One batch is one Setup, the same epoch and answers as the whole load.
		if tc.batch == 100 && out != whole {
			t.Errorf("one-batch stream differs from the whole load:\n%s\nvs\n%s", out, whole)
		}
	}
	c := config{domain: "csv", data: filepath.Join(dir, "nope"), importBatch: 3, approach: "UDI", query: "SELECT name FROM t"}
	if _, err := runOut(t, c); err == nil {
		t.Error("missing CSV directory accepted")
	}
}

func TestExportAndSummarize(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tables")
	c := config{domain: "People", sources: 8, export: dir, approach: "UDI"}
	out, err := runOut(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "wrote 8 tables (") {
		t.Errorf("export printed %q", out)
	}
	out, err = runOut(t, config{domain: "csv", data: dir, summarize: true, approach: "UDI"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "8 tables, ") || !strings.Contains(out, "most frequent attributes:") {
		t.Errorf("summary printed %q", out)
	}
}

func TestRunExportErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]config{
		"with -remote":      {domain: "People", export: dir, remote: "http://127.0.0.1:1", approach: "UDI"},
		"with -load":        {summarize: true, load: filepath.Join(dir, "s.udi.gz"), approach: "UDI"},
		"unknown domain":    {domain: "Atlantis", export: dir, approach: "UDI"},
		"missing data dir":  {domain: "csv", data: "/nonexistent-dir-xyz", summarize: true, approach: "UDI"},
		"unwritable export": {domain: "People", sources: 2, export: filepath.Join(dir, "file", "sub"), approach: "UDI"},
	} {
		if _, err := runOut(t, c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
