package shardrpc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udi/internal/core"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shardrpc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/adopt.golden.json from this build")

// TestGoldenAdoptBody pins one POST /v1/shard/adopt body byte for byte
// against the checked-in one — written by the build before the wire
// value types became aliases of the shared interchange shapes — and
// decodes it back. After a deliberate protocol change (and a Version
// bump), rerun with -update-golden.
func TestGoldenAdoptBody(t *testing.T) {
	srcs := []*schema.Source{
		schema.MustNewSource("g00", []string{"telephone", "bravo"}, [][]string{{"v0", "v1"}}),
		schema.MustNewSource("g01", []string{"tel", "bravo"}, [][]string{{"v1", "v2"}}),
		schema.MustNewSource("g02", []string{"telephone", "tel", "bravo"}, [][]string{{"v2", "v0", "v1"}, {"", "x\x1fy", "z"}}),
	}
	corpus, err := schema.NewCorpus("golden", srcs)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Setup(corpus, core.Config{Obs: obs.Disabled})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Med.PMed.Len() < 2 {
		t.Fatal("the golden corpus no longer sits on an uncertain edge")
	}
	got, err := json.Marshal(shardrpc.AdoptRequest{Proto: shardrpc.Version,
		Sources: shardrpc.EncodeSources(srcs[1:]), Med: shardrpc.EncodeMed(sys.Med)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "adopt.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenAdoptBody -update-golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("adopt body changed\nwant %s\n got %s", want, got)
	}

	var req shardrpc.AdoptRequest
	if err := json.Unmarshal(want, &req); err != nil {
		t.Fatal(err)
	}
	med, err := shardrpc.DecodeMed(req.Med)
	if err != nil {
		t.Fatal(err)
	}
	back, err := shardrpc.DecodeSources(req.Sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(med.PMed, sys.Med.PMed) || !reflect.DeepEqual(back, srcs[1:]) {
		t.Fatal("the golden adopt body no longer decodes to what was encoded")
	}
}
