package persist

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"udi/internal/core"
	"udi/internal/datagen"
)

// smallSnapshot is a Save of a four-source People system, gzip and all.
func smallSnapshot(tb testing.TB) []byte {
	tb.Helper()
	spec := datagen.People(103)
	spec.NumSources = 4
	sys, err := core.Setup(datagen.MustGenerate(spec).Corpus, core.Config{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(b)
	gz.Close()
	return buf.Bytes()
}

func gunzip(tb testing.TB, b []byte) []byte {
	tb.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := io.ReadAll(gz)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzLoadSnapshot: any input either fails to load or loads a system
// whose Save loads again and saves to the same bytes. An input that does
// not start with the gzip magic is taken as the snapshot's JSON and
// compressed first, so mutations reach the decoder behind the gzip layer
// as well as the layer itself. The seeds are a format-2 Save of a small
// corpus, its JSON, and a hand-built format-1 snapshot: the same JSON at
// version 1 carrying the consolidated p-mappings field format 2 dropped.
func FuzzLoadSnapshot(f *testing.F) {
	saved := smallSnapshot(f)
	doc := gunzip(f, saved)
	f.Add(saved)
	f.Add(doc)
	v1 := strings.Replace(string(doc), `{"version":2,`, `{"version":1,"consolidated_mappings":[{"source":"x","mappings":[]}],`, 1)
	if v1 == string(doc) {
		f.Fatal("the saved snapshot does not open with its version")
	}
	f.Add([]byte(v1))
	f.Add([]byte(`{"version":2}`))
	for _, seed := range [][]byte{saved, gzipped(doc), gzipped([]byte(v1))} {
		if _, err := Load(bytes.NewReader(seed), core.Config{Parallelism: 1}); err != nil {
			f.Fatalf("a seed snapshot does not load: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			data = gzipped(data)
		}
		sys, err := Load(bytes.NewReader(data), core.Config{Parallelism: 1})
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Save(&first, sys); err != nil {
			t.Fatalf("save of a loaded system: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()), core.Config{Parallelism: 1})
		if err != nil {
			t.Fatalf("a loaded system's save does not load: %v", err)
		}
		if err := Save(&second, again); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the snapshot:\n%s\nvs\n%s", gunzip(t, first.Bytes()), gunzip(t, second.Bytes()))
		}
	})
}
