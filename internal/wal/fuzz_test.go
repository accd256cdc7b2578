package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadFrames: any input either fails wrapping ErrCorrupt or decodes
// to records whose re-encoding through EncodeFrame is exactly the input,
// each at the offset it was read from — a shipped tail can be refused,
// it cannot decode to records other than the ones it carries.
func FuzzReadFrames(f *testing.F) {
	journal, err := os.ReadFile(filepath.Join("..", "shard", "testdata", "journal.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for _, r := range testRecords() {
		stream = EncodeFrame(stream, r.Seq, r.Kind, r.Data)
	}
	f.Add(stream)
	f.Add(EncodeFrame(nil, 7, "journal", journal))
	f.Add(EncodeFrame(EncodeFrame(nil, 1, "feedback", journal[:len(journal)/2]), 2, "journal", journal))
	f.Add(EncodeFrame(nil, 0, "", nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadFrames(data)
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
			again = EncodeFrame(again, r.Seq, r.Kind, r.Data)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%d records re-encode to %d bytes other than the %d read", len(recs), len(again), len(data))
		}
	})
}
