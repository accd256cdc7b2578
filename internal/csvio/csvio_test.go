package csvio

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udi/internal/datagen"
	"udi/internal/schema"
)

func TestRoundTrip(t *testing.T) {
	spec := datagen.People(103)
	spec.NumSources = 8
	c := datagen.MustGenerate(spec)
	dir := t.TempDir()
	if err := WriteCorpus(c.Corpus, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus("People", dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Sources) != len(c.Corpus.Sources) {
		t.Fatalf("sources %d vs %d", len(loaded.Sources), len(c.Corpus.Sources))
	}
	for i, src := range c.Corpus.Sources {
		got := loaded.Sources[i]
		if got.Name != src.Name {
			t.Fatalf("source %d name %q vs %q", i, got.Name, src.Name)
		}
		if !reflect.DeepEqual(got.Attrs, src.Attrs) {
			t.Errorf("%s attrs %v vs %v", src.Name, got.Attrs, src.Attrs)
		}
		if !reflect.DeepEqual(got.Rows, src.Rows) {
			t.Errorf("%s rows differ", src.Name)
		}
	}
}

func TestLoadSourceRaggedAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "web.csv")
	content := "name,phone,name,\nAlice,123,dup\nBob,456,dup2,extra,evenmore\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadSource("web", path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"name", "phone", "name_2", "col4"}
	if !reflect.DeepEqual(src.Attrs, want) {
		t.Errorf("attrs = %v, want %v", src.Attrs, want)
	}
	if len(src.Rows) != 2 {
		t.Fatalf("rows = %v", src.Rows)
	}
	// Short rows padded, long rows truncated.
	if !reflect.DeepEqual(src.Rows[0], []string{"Alice", "123", "dup", ""}) {
		t.Errorf("row 0 = %v", src.Rows[0])
	}
	if !reflect.DeepEqual(src.Rows[1], []string{"Bob", "456", "dup2", "extra"}) {
		t.Errorf("row 1 = %v", src.Rows[1])
	}
}

func TestLoadCorpusErrors(t *testing.T) {
	if _, err := LoadCorpus("d", "/nonexistent-dir-xyz"); err == nil {
		t.Error("missing directory accepted")
	}
	empty := t.TempDir()
	if _, err := LoadCorpus("d", empty); err == nil {
		t.Error("empty directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus("d", dir); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestLoadCorpusSkipsNonCSV(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("x\n1\n"), 0o644)
	c, err := LoadCorpus("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sources) != 1 || c.Sources[0].Name != "a" {
		t.Errorf("sources = %v", c.Sources)
	}
}

func TestWriteSourceError(t *testing.T) {
	src := schema.MustNewSource("s", []string{"a"}, nil)
	if err := WriteSource(src, "/nonexistent-dir-xyz/out.csv"); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestStreamCorpus: streaming a directory in batches must visit exactly
// the sources LoadCorpus loads, in the same sorted order, cut at the
// requested batch size with one final partial batch; batch<=0 means one
// batch; a callback error aborts the walk.
func TestStreamCorpus(t *testing.T) {
	spec := datagen.People(107)
	spec.NumSources = 7
	c := datagen.MustGenerate(spec)
	dir := t.TempDir()
	if err := WriteCorpus(c.Corpus, dir); err != nil {
		t.Fatal(err)
	}
	whole, err := LoadCorpus("People", dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{0, 1, 3, 7, 100} {
		var got []*schema.Source
		var sizes []int
		err := StreamCorpus(dir, batch, func(srcs []*schema.Source) error {
			got = append(got, srcs...)
			sizes = append(sizes, len(srcs))
			return nil
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != len(whole.Sources) {
			t.Fatalf("batch=%d: streamed %d sources, want %d", batch, len(got), len(whole.Sources))
		}
		for i := range got {
			if got[i].Name != whole.Sources[i].Name {
				t.Fatalf("batch=%d: source %d is %q, LoadCorpus order says %q",
					batch, i, got[i].Name, whole.Sources[i].Name)
			}
			if !reflect.DeepEqual(got[i].Rows, whole.Sources[i].Rows) {
				t.Fatalf("batch=%d: source %q rows differ from LoadCorpus", batch, got[i].Name)
			}
		}
		want := batch
		if batch <= 0 || batch > 7 {
			want = 7
		}
		for i, n := range sizes {
			full := want
			if i == len(sizes)-1 && 7%want != 0 {
				full = 7 % want
			}
			if n != full {
				t.Fatalf("batch=%d: batch %d has %d sources, want %d (sizes %v)", batch, i, n, full, sizes)
			}
		}
	}

	// Callback errors abort the stream.
	calls := 0
	sentinel := os.ErrClosed
	if err := StreamCorpus(dir, 2, func([]*schema.Source) error {
		calls++
		return sentinel
	}); err != sentinel {
		t.Fatalf("stream error = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after erroring, want 1", calls)
	}

	// An empty directory is an error, like LoadCorpus.
	if err := StreamCorpus(t.TempDir(), 2, func([]*schema.Source) error { return nil }); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestStreamCorpusCRLFQuotedNewline: CRLF line endings and quoted
// fields containing newlines — the two CSV shapes whose record
// boundaries do not coincide with raw '\n' positions — must parse
// identically through StreamCorpus and LoadCorpus: CRLF terminators are
// stripped, while a newline inside a quoted field survives as field
// content and never splits the row.
func TestStreamCorpusCRLFQuotedNewline(t *testing.T) {
	dir := t.TempDir()
	// CRLF-terminated file, including a trailing CRLF on the last row.
	crlf := "name,phone\r\nann,555\r\nbob,\"55\n6\"\r\n"
	if err := os.WriteFile(filepath.Join(dir, "a_crlf.csv"), []byte(crlf), 0o644); err != nil {
		t.Fatal(err)
	}
	// Quoted newline in the very last field with no trailing terminator.
	edge := "name,phone\ncia,\"line1\nline2\""
	if err := os.WriteFile(filepath.Join(dir, "b_edge.csv"), []byte(edge), 0o644); err != nil {
		t.Fatal(err)
	}

	var got []*schema.Source
	if err := StreamCorpus(dir, 1, func(srcs []*schema.Source) error {
		got = append(got, srcs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d sources, want 2", len(got))
	}
	wantRows := map[string][][]string{
		"a_crlf": {{"ann", "555"}, {"bob", "55\n6"}},
		"b_edge": {{"cia", "line1\nline2"}},
	}
	for _, src := range got {
		if !reflect.DeepEqual(src.Rows, wantRows[src.Name]) {
			t.Errorf("%s rows = %q, want %q", src.Name, src.Rows, wantRows[src.Name])
		}
	}

	whole, err := LoadCorpus("edge", dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range whole.Sources {
		if !reflect.DeepEqual(src.Rows, got[i].Rows) {
			t.Errorf("LoadCorpus %s rows differ from StreamCorpus", src.Name)
		}
	}
}

// TestRoundTripBlankSingleCell: a one-column row whose cell is empty
// must survive WriteSource → LoadSource. encoding/csv writes such a row
// as a blank line, and its reader skips blank lines.
func TestRoundTripBlankSingleCell(t *testing.T) {
	src := schema.MustNewSource("s", []string{"a"}, [][]string{{"x"}, {""}, {"y"}})
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := WriteSource(src, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSource("s", path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, src.Rows) {
		t.Errorf("rows = %q, want %q", back.Rows, src.Rows)
	}
}

// FuzzCSVRoundTrip feeds arbitrary bytes to the decoder. Whatever
// LoadSource accepts, WriteSource must store so that LoadSource reads
// back the same attributes and every cell unchanged; nothing may panic.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add([]byte("name,phone\nAlice,123\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.csv")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := LoadSource("s", in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.csv")
		if err := WriteSource(src, out); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSource("s", out)
		if err != nil {
			t.Fatalf("rereading the written source: %v", err)
		}
		if !reflect.DeepEqual(back.Attrs, src.Attrs) {
			t.Fatalf("attrs %q, want %q", back.Attrs, src.Attrs)
		}
		if len(back.Rows) != len(src.Rows) {
			t.Fatalf("%d rows, want %d", len(back.Rows), len(src.Rows))
		}
		for i := range src.Rows {
			if !reflect.DeepEqual(back.Rows[i], src.Rows[i]) {
				t.Fatalf("row %d = %q, want %q", i, back.Rows[i], src.Rows[i])
			}
		}
	})
}
