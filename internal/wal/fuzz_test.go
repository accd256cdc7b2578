package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadFrames: any input either fails wrapping ErrCorrupt or decodes
// to records whose re-encoding is exactly the input, each at the offset
// it was read from — a shipped tail can be refused, it cannot decode to
// records other than the ones it carries. The tolerant arm holds the
// decoder Open uses to the strict one: its records are exactly those of
// the strict reading of its valid prefix, and the strict reading of the
// whole input succeeds exactly when that prefix is the whole input.
func FuzzReadFrames(f *testing.F) {
	journal, err := os.ReadFile(filepath.Join("..", "shard", "testdata", "journal.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for _, r := range testRecords() {
		stream = appendFrame(stream, r.Seq, r.Kind, r.Data)
	}
	f.Add(stream)
	f.Add(appendFrame(nil, 7, "journal", journal))
	f.Add(appendFrame(appendFrame(nil, 1, "feedback", journal[:len(journal)/2]), 2, "journal", journal))
	f.Add(appendFrame(nil, 0, "", nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadFrames(data)
		tolerant, validEnd, terr := decode(data)
		if terr == nil {
			prefix, perr := ReadFrames(data[:validEnd])
			if perr != nil || !sameRecords(prefix, tolerant) {
				t.Fatalf("tolerant reading (%d records to offset %d) differs from the strict reading of that prefix (%d records, %v)",
					len(tolerant), validEnd, len(prefix), perr)
			}
			for i := range prefix {
				if prefix[i].Off != tolerant[i].Off {
					t.Fatalf("record %d: tolerant offset %d, strict %d", i, tolerant[i].Off, prefix[i].Off)
				}
			}
			if (err == nil) != (validEnd == int64(len(data))) {
				t.Fatalf("strict reading err = %v, but the valid prefix ends at %d of %d bytes", err, validEnd, len(data))
			}
		} else if err == nil {
			t.Fatalf("strict reading accepts what the tolerant one refuses: %v", terr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || recs != nil {
				t.Fatalf("untyped refusal: (%v, %v)", recs, err)
			}
			return
		}
		var again []byte
		for i, r := range recs {
			if r.Off != int64(len(again)) {
				t.Fatalf("record %d read at offset %d, its frame starts at %d", i, r.Off, len(again))
			}
			again = appendFrame(again, r.Seq, r.Kind, r.Data)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%d records re-encode to %d bytes other than the %d read", len(recs), len(again), len(data))
		}
	})
}
