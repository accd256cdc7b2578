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
	"udi/internal/persist"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/restructure.golden.json from this build")

// TestGoldenRestructureBody pins one POST /v1/shard/restructure body byte
// for byte against the checked-in one and decodes it back: an owner's
// fast-path change that drops g00, keeps g01 and adds g02 with its rows
// and p-mappings. After a deliberate protocol change (and a Version
// bump), rerun with -update-golden.
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
	ch := shard.Change{Domain: "golden", Sources: []string{"g01", "g02"}, Add: srcs[2:], Med: sys.Med, Target: sys.Target,
		Maps: map[string][]*pmapping.PMapping{"g02": sys.Maps["g02"]}}
	got, err := json.Marshal(shardrpc.EncodeChange(ch))
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
	back, err := shardrpc.DecodeChange(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Med.PMed, sys.Med.PMed) || !reflect.DeepEqual(back.Add, ch.Add) || !reflect.DeepEqual(back.Sources, ch.Sources) ||
		back.Domain != ch.Domain || !reflect.DeepEqual(back.Target, ch.Target) || !reflect.DeepEqual(back.Maps, ch.Maps) {
		t.Fatal("the golden restructure body no longer decodes to what was encoded")
	}
}

// FuzzDecodeRestructure: whatever bytes arrive as a restructure body, the
// host's decoders never panic; a mediation they accept satisfies
// Definition 3.1 — every probability in (0, 1], summing to 1 ± 1e-6 — and
// survives its own re-encoding exactly; sources they accept round-trip
// through core.DataOf; and p-mappings they accept — the bytes the
// persist snapshot loader shares the decoder for — are servable: one per
// schema, every group's probabilities in [0, 1] and summing to 1 ± 1e-6,
// every mapping naming one of its group's correspondences, every
// correspondence one of its schema's attributes, and re-encoding them
// reproduces them bit for bit. The checked-in seeds are the golden body
// and bodies with a NaN probability, an empty cluster, a duplicate
// attribute, a NaN weight, a mapping naming a correspondence out of
// range, group probabilities not summing to 1 and a mediated attribute
// out of range.
func FuzzDecodeRestructure(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req shardrpc.RestructureRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if srcs, err := shardrpc.DecodeSources(req.Add); err == nil {
			for _, src := range srcs {
				again, err := core.DataOf(src).Source()
				if err != nil || !reflect.DeepEqual(again, src) {
					t.Fatalf("source %q does not round-trip: %v", src.Name, err)
				}
			}
		}
		med, err := shardrpc.DecodeMed(req.Med)
		if err != nil {
			return
		}
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
		maps, err := persist.DecodeMaps(req.Maps, med.PMed)
		if err != nil {
			return
		}
		var names []string
		for _, sm := range req.Maps {
			names = append(names, sm.Source)
		}
		for name, pms := range maps {
			if len(pms) != med.PMed.Len() {
				t.Fatalf("%s: accepted %d p-mappings for %d schemas", name, len(pms), med.PMed.Len())
			}
			for l, pm := range pms {
				if pm.Med != med.PMed.Schemas[l] {
					t.Fatalf("%s schema %d: p-mapping paired with another schema", name, l)
				}
				for _, g := range pm.Groups {
					servable(t, g, len(pm.Med.Attrs))
				}
			}
		}
		enc, err := json.Marshal(persist.EncodeMaps(names, maps))
		if err != nil {
			t.Fatalf("accepted p-mappings do not re-encode: %v", err)
		}
		var sms []persist.SourceMaps
		if err := json.Unmarshal(enc, &sms); err != nil {
			t.Fatal(err)
		}
		back, err := persist.DecodeMaps(sms, med.PMed)
		if err != nil {
			t.Fatalf("re-encoded p-mappings refused: %v", err)
		}
		if !sameMapBits(maps, back) {
			t.Fatal("re-encoded p-mappings differ")
		}
	})
}

// servable restates what a query needs of a decoded group, independently
// of the validator that accepted it.
func servable(t *testing.T, g pmapping.Group, width int) {
	t.Helper()
	if len(g.Mappings) != len(g.Probs) {
		t.Fatalf("accepted %d mappings with %d probabilities", len(g.Mappings), len(g.Probs))
	}
	sum := 0.0
	for _, p := range g.Probs {
		if !(p >= 0 && p <= 1+1e-9) {
			t.Fatalf("accepted mapping probability %v", p)
		}
		sum += p
	}
	if !(math.Abs(sum-1) <= 1e-6) {
		t.Fatalf("accepted mapping probabilities summing to %v", sum)
	}
	for _, m := range g.Mappings {
		for _, ci := range m {
			if ci < 0 || ci >= len(g.Corrs) {
				t.Fatalf("accepted a mapping naming correspondence %d of %d", ci, len(g.Corrs))
			}
		}
	}
	for _, c := range g.Corrs {
		if c.MedIdx < 0 || c.MedIdx >= width {
			t.Fatalf("accepted a correspondence onto mediated attribute %d of %d", c.MedIdx, width)
		}
	}
}

// sameMapBits is DeepEqual on p-mappings with every weight and
// probability compared as a bit pattern.
func sameMapBits(a, b map[string][]*pmapping.PMapping) bool {
	if len(a) != len(b) {
		return false
	}
	for name, pms := range a {
		qms := b[name]
		if len(pms) != len(qms) {
			return false
		}
		for l, pm := range pms {
			qm := qms[l]
			if pm.SourceName != qm.SourceName || pm.Med != qm.Med || pm.DroppedCorrs != qm.DroppedCorrs || len(pm.Groups) != len(qm.Groups) {
				return false
			}
			for k, g := range pm.Groups {
				h := qm.Groups[k]
				if len(g.Corrs) != len(h.Corrs) || len(g.Probs) != len(h.Probs) || !reflect.DeepEqual(g.Mappings, h.Mappings) {
					return false
				}
				for i, c := range g.Corrs {
					d := h.Corrs[i]
					if c.SrcAttr != d.SrcAttr || c.MedIdx != d.MedIdx || math.Float64bits(c.Weight) != math.Float64bits(d.Weight) {
						return false
					}
				}
				for i, p := range g.Probs {
					if math.Float64bits(p) != math.Float64bits(h.Probs[i]) {
						return false
					}
				}
			}
		}
	}
	return true
}
