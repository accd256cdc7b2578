package shardrpc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udi/internal/core"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shardrpc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/restructure.golden.json from this build")

// TestGoldenRestructureBody pins one POST /v1/shard/restructure body byte
// for byte against the checked-in one and decodes it back. After a
// deliberate protocol change (and a Version bump), rerun with
// -update-golden.
func TestGoldenRestructureBody(t *testing.T) {
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
	got, err := json.Marshal(shardrpc.RestructureRequest{Proto: shardrpc.Version,
		Sources: shardrpc.EncodeSources(srcs[1:]), Drop: []string{"g00"}, Med: shardrpc.EncodeMed(sys.Med)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "restructure.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenRestructureBody -update-golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restructure body changed\nwant %s\n got %s", want, got)
	}

	var req shardrpc.RestructureRequest
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
	if !reflect.DeepEqual(med.PMed, sys.Med.PMed) || !reflect.DeepEqual(back, srcs[1:]) || !reflect.DeepEqual(req.Drop, []string{"g00"}) {
		t.Fatal("the golden restructure body no longer decodes to what was encoded")
	}
}

// FuzzDecodeRestructure: whatever bytes arrive as a restructure body, the
// host's decoders never panic; a mediation they accept satisfies
// Definition 3.1 — every probability in (0, 1], summing to 1 ± 1e-6 — and
// survives its own re-encoding exactly, and sources they accept round-trip
// through core.DataOf. The checked-in seeds are the golden body and bodies
// with a NaN probability, an empty cluster and a duplicate attribute.
func FuzzDecodeRestructure(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req shardrpc.RestructureRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if med, err := shardrpc.DecodeMed(req.Med); err == nil {
			sum := 0.0
			for _, p := range med.PMed.Probs {
				if !(p > 0 && p <= 1) {
					t.Fatalf("accepted probability %v", p)
				}
				sum += p
			}
			if !(math.Abs(sum-1) <= 1e-6) {
				t.Fatalf("accepted probabilities summing to %v", sum)
			}
			again, err := shardrpc.DecodeMed(shardrpc.EncodeMed(med))
			if err != nil || !reflect.DeepEqual(again, med) {
				t.Fatalf("re-encoded mediation: %v, %+v, want %+v", err, again, med)
			}
		}
		if srcs, err := shardrpc.DecodeSources(req.Sources); err == nil {
			for _, src := range srcs {
				again, err := core.DataOf(src).Source()
				if err != nil || !reflect.DeepEqual(again, src) {
					t.Fatalf("source %q does not round-trip: %v", src.Name, err)
				}
			}
		}
	})
}
