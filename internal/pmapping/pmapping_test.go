package pmapping

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"udi/internal/schema"
)

// tableSim builds a similarity function from explicit pairs (symmetric,
// defaulting to 1 for identical names and 0 otherwise).
func tableSim(table map[[2]string]float64) func(a, b string) float64 {
	return func(a, b string) float64 {
		if w, ok := table[[2]string{a, b}]; ok {
			return w
		}
		if w, ok := table[[2]string{b, a}]; ok {
			return w
		}
		if a == b {
			return 1
		}
		return 0
	}
}

func med(clusters ...[]string) *schema.MediatedSchema {
	var attrs []schema.MediatedAttr
	for _, c := range clusters {
		attrs = append(attrs, schema.NewMediatedAttr(c...))
	}
	return schema.MustNewMediatedSchema(attrs)
}

func TestWeightedCorrespondencesSumOverCluster(t *testing.T) {
	src := schema.MustNewSource("s", []string{"phone"}, nil)
	m := med([]string{"phone", "hPhone"}, []string{"oPhone"})
	sim := tableSim(map[[2]string]float64{
		{"phone", "hPhone"}: 0.8,
		{"phone", "oPhone"}: 0.6,
	})
	corrs := WeightedCorrespondences(src, m, sim, 0.5)
	// Cluster {hPhone, phone}: 1 (identity) + 0.8 = 1.8. Cluster {oPhone}: 0.6.
	if len(corrs) != 2 {
		t.Fatalf("corrs = %v", corrs)
	}
	byIdx := map[int]float64{}
	for _, c := range corrs {
		byIdx[c.MedIdx] = c.Weight
	}
	hpIdx := 0 // {hPhone, phone} sorts first
	if math.Abs(byIdx[hpIdx]-1.8) > 1e-9 {
		t.Errorf("weight to {hPhone,phone} = %f, want 1.8", byIdx[hpIdx])
	}
	if math.Abs(byIdx[1]-0.6) > 1e-9 {
		t.Errorf("weight to {oPhone} = %f, want 0.6", byIdx[1])
	}
}

func TestWeightedCorrespondencesThreshold(t *testing.T) {
	src := schema.MustNewSource("s", []string{"x"}, nil)
	m := med([]string{"y"})
	sim := func(a, b string) float64 { return 0.5 }
	if corrs := WeightedCorrespondences(src, m, sim, 0.85); len(corrs) != 0 {
		t.Errorf("sub-threshold correspondence kept: %v", corrs)
	}
}

func TestNormalize(t *testing.T) {
	// Row sum for "a" is 1.5 -> M' = 1.5.
	corrs := []Corr{{"a", 0, 0.9}, {"a", 1, 0.6}, {"b", 2, 0.5}}
	norm := Normalize(corrs)
	if math.Abs(norm[0].Weight-0.6) > 1e-9 || math.Abs(norm[1].Weight-0.4) > 1e-9 {
		t.Errorf("normalized = %v", norm)
	}
	// Already-feasible weights must not be inflated (M' clamped at 1).
	corrs = []Corr{{"a", 0, 0.3}}
	if norm := Normalize(corrs); norm[0].Weight != 0.3 {
		t.Errorf("feasible weight inflated to %f", norm[0].Weight)
	}
	// Column sums count too.
	corrs = []Corr{{"a", 0, 0.9}, {"b", 0, 0.9}}
	norm = Normalize(corrs)
	if math.Abs(norm[0].Weight-0.5) > 1e-9 {
		t.Errorf("column normalization wrong: %v", norm)
	}
	// Theorem 5.2 conditions hold afterwards.
	rows := map[string]float64{}
	cols := map[int]float64{}
	for _, c := range norm {
		rows[c.SrcAttr] += c.Weight
		cols[c.MedIdx] += c.Weight
	}
	for _, s := range rows {
		if s > 1+1e-9 {
			t.Errorf("row sum %f > 1", s)
		}
	}
	for _, s := range cols {
		if s > 1+1e-9 {
			t.Errorf("col sum %f > 1", s)
		}
	}
}

// The paper's §5.2 worked example: correspondences A→A' = 0.6, B→B' = 0.5
// must yield the independent-product p-mapping pM1 with probabilities
// 0.3 / 0.3 / 0.2 / 0.2.
func TestBuildPaperExample(t *testing.T) {
	src := schema.MustNewSource("s", []string{"A", "B"}, nil)
	m := med([]string{"Aprime"}, []string{"Bprime"})
	sim := tableSim(map[[2]string]float64{
		{"A", "Aprime"}: 0.6,
		{"B", "Bprime"}: 0.5,
	})
	pm, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Groups) != 2 {
		t.Fatalf("want 2 independent groups, got %d", len(pm.Groups))
	}
	full, err := pm.FullMappings(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 {
		t.Fatalf("want 4 full mappings, got %d", len(full))
	}
	// Find each mapping's probability by its correspondence set.
	probs := map[int]float64{} // bitmask: 1 = A mapped, 2 = B mapped
	for _, fm := range full {
		mask := 0
		for _, p := range fm.Pairs {
			switch p.Med {
			case 0:
				mask |= 1
			case 1:
				mask |= 2
			}
		}
		probs[mask] += fm.Prob
	}
	want := map[int]float64{3: 0.3, 1: 0.3, 2: 0.2, 0: 0.2}
	for mask, w := range want {
		if math.Abs(probs[mask]-w) > 1e-8 {
			t.Errorf("mask %d: prob %f, want %f", mask, probs[mask], w)
		}
	}
}

func TestBuildCompetingCorrespondences(t *testing.T) {
	// One source attribute similar to two mediated attributes: one group,
	// mutually exclusive correspondences. Maxent: P(a→0) = w0, P(a→1) = w1,
	// P(empty) = 1 − w0 − w1.
	src := schema.MustNewSource("s", []string{"phone"}, nil)
	m := med([]string{"hPhone"}, []string{"oPhone"})
	sim := tableSim(map[[2]string]float64{
		{"phone", "hPhone"}: 0.5,
		{"phone", "oPhone"}: 0.4,
	})
	pm, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Groups) != 1 {
		t.Fatalf("want 1 group, got %d", len(pm.Groups))
	}
	g := pm.Groups[0]
	if len(g.Mappings) != 3 {
		t.Fatalf("want 3 mappings (empty, →h, →o), got %d", len(g.Mappings))
	}
	if r := pm.ConsistencyResidual(); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
	sum := 0.0
	for _, p := range g.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("group probs sum to %f", sum)
	}
}

func TestBuildNoCorrespondences(t *testing.T) {
	src := schema.MustNewSource("s", []string{"zzz"}, nil)
	m := med([]string{"title"})
	pm, err := Build(src, m, Config{Sim: func(a, b string) float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Groups) != 0 {
		t.Errorf("expected no groups, got %d", len(pm.Groups))
	}
	asgns := pm.AssignmentsFor([]int{0})
	if len(asgns) != 1 || asgns[0].Prob != 1 || len(asgns[0].SrcAttrs) != 1 || asgns[0].SrcAttrs[0] != "" {
		t.Errorf("empty p-mapping assignments = %v", asgns)
	}
	top, p := pm.TopMapping()
	if len(top) != 0 || p != 1 {
		t.Errorf("TopMapping = %v, %f", top, p)
	}
}

func TestAssignmentsForMarginalizes(t *testing.T) {
	// Two groups; asking about only one mediated attribute must not
	// enumerate the other group's mappings.
	src := schema.MustNewSource("s", []string{"A", "B"}, nil)
	m := med([]string{"Aprime"}, []string{"Bprime"})
	sim := tableSim(map[[2]string]float64{
		{"A", "Aprime"}: 0.6,
		{"B", "Bprime"}: 0.5,
	})
	pm, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	asgns := pm.AssignmentsFor([]int{0})
	if len(asgns) != 2 {
		t.Fatalf("want 2 marginal assignments, got %v", asgns)
	}
	total := 0.0
	mappedProb := 0.0
	for _, a := range asgns {
		total += a.Prob
		if a.SrcAttrs[0] == "A" {
			mappedProb += a.Prob
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("marginal probs sum to %f", total)
	}
	if math.Abs(mappedProb-0.6) > 1e-8 {
		t.Errorf("P(A mapped) = %f, want 0.6", mappedProb)
	}
}

func TestTopMapping(t *testing.T) {
	src := schema.MustNewSource("s", []string{"A", "B"}, nil)
	m := med([]string{"Aprime"}, []string{"Bprime"})
	sim := tableSim(map[[2]string]float64{
		{"A", "Aprime"}: 0.9,
		{"B", "Bprime"}: 0.8,
	})
	pm, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	top, p := pm.TopMapping()
	if top[0] != "A" || top[1] != "B" {
		t.Errorf("TopMapping = %v", top)
	}
	if math.Abs(p-0.72) > 1e-8 {
		t.Errorf("top probability = %f, want 0.72", p)
	}
}

func TestGroupCapDropsWeakest(t *testing.T) {
	// A clique group: source attrs a,b each similar to med attrs 0,1.
	// With a tiny cap, enumeration must drop correspondences instead of
	// failing.
	src := schema.MustNewSource("s", []string{"a", "b"}, nil)
	m := med([]string{"x"}, []string{"y"})
	sim := tableSim(map[[2]string]float64{
		{"a", "x"}: 0.50, {"a", "y"}: 0.45,
		{"b", "x"}: 0.44, {"b", "y"}: 0.48,
	})
	pm, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.4, MaxMappingsPerGroup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pm.DroppedCorrs == 0 {
		t.Error("expected dropped correspondences under tiny cap")
	}
	for _, g := range pm.Groups {
		sum := 0.0
		for _, p := range g.Probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("group probs sum to %f", sum)
		}
	}
}

func TestNumFullMappings(t *testing.T) {
	pm := &PMapping{Groups: []Group{
		{Mappings: [][]int{{}, {0}}},
		{Mappings: [][]int{{}, {0}, {1}}},
	}}
	if n := pm.NumFullMappings(); n != 6 {
		t.Errorf("NumFullMappings = %d, want 6", n)
	}
	if _, err := pm.FullMappings(5); err == nil {
		t.Error("FullMappings over limit should error")
	}
}

// Property: on random instances, every group's probabilities sum to 1, the
// Definition 5.1 residual is tiny, one-to-one-ness holds within every
// mapping, and the full marginal over all mediated attributes sums to 1.
func TestBuildRandomProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSrc := 1 + rng.Intn(4)
		nMed := 1 + rng.Intn(4)
		srcAttrs := make([]string, nSrc)
		for i := range srcAttrs {
			srcAttrs[i] = string(rune('a' + i))
		}
		var clusters [][]string
		for j := 0; j < nMed; j++ {
			clusters = append(clusters, []string{string(rune('A' + j))})
		}
		table := make(map[[2]string]float64)
		for i := 0; i < nSrc; i++ {
			for j := 0; j < nMed; j++ {
				if rng.Float64() < 0.5 {
					table[[2]string{srcAttrs[i], clusters[j][0]}] = 0.4 + 0.6*rng.Float64()
				}
			}
		}
		src := schema.MustNewSource("s", srcAttrs, nil)
		m := med(clusters...)
		pm, err := Build(src, m, Config{Sim: tableSim(table), CorrThreshold: 0.4})
		if err != nil {
			return false
		}
		if pm.ConsistencyResidual() > 1e-6 {
			return false
		}
		for _, g := range pm.Groups {
			sum := 0.0
			for _, p := range g.Probs {
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
			for _, mapping := range g.Mappings {
				seenSrc := map[string]bool{}
				seenMed := map[int]bool{}
				for _, ci := range mapping {
					c := g.Corrs[ci]
					if seenSrc[c.SrcAttr] || seenMed[c.MedIdx] {
						return false
					}
					seenSrc[c.SrcAttr], seenMed[c.MedIdx] = true, true
				}
			}
		}
		all := make([]int, nMed)
		for j := range all {
			all[j] = j
		}
		total := 0.0
		for _, a := range pm.AssignmentsFor(all) {
			total += a.Prob
		}
		return math.Abs(total-1) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildSmall(b *testing.B) {
	src := schema.MustNewSource("s", []string{"A", "B", "C"}, nil)
	m := med([]string{"Aprime"}, []string{"Bprime"}, []string{"Cprime"})
	sim := tableSim(map[[2]string]float64{
		{"A", "Aprime"}: 0.9, {"B", "Bprime"}: 0.8, {"C", "Cprime"}: 0.7,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(src, m, Config{Sim: sim, CorrThreshold: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAggregateModes(t *testing.T) {
	src := schema.MustNewSource("s", []string{"address."}, nil)
	m := med([]string{"address", "address."})
	sim := func(a, b string) float64 {
		// Both cluster members normalize identically to the source attr.
		return 1
	}
	sum := WeightedCorrespondencesAgg(src, m, sim, 0.85, AggSum)
	if len(sum) != 1 || sum[0].Weight != 2 {
		t.Errorf("AggSum = %v, want weight 2", sum)
	}
	max := WeightedCorrespondencesAgg(src, m, sim, 0.85, AggMax)
	if len(max) != 1 || max[0].Weight != 1 {
		t.Errorf("AggMax = %v, want weight 1", max)
	}
	avg := WeightedCorrespondencesAgg(src, m, sim, 0.85, AggAvg)
	if len(avg) != 1 || avg[0].Weight != 1 {
		t.Errorf("AggAvg = %v, want weight 1", avg)
	}

	// The collateral damage of the sum: a second, unrelated identity
	// correspondence is dragged down by the global M' normalization when
	// another cluster's weight is inflated past 1 — AggMax avoids it.
	src2 := schema.MustNewSource("s", []string{"address.", "phone"}, nil)
	m2 := med([]string{"address", "address."}, []string{"phone"})
	sim2 := func(a, b string) float64 {
		if a == "phone" || b == "phone" {
			if a == b {
				return 1
			}
			return 0
		}
		return 1 // all address variants are identical after normalization
	}
	pm, err := Build(src2, m2, Config{Sim: sim2, Aggregate: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if p := pm.MarginalProb("phone", 1); p > 0.75 {
		t.Errorf("AggSum phone marginal = %f, expected dampened (< 0.75)", p)
	}
	pm, err = Build(src2, m2, Config{Sim: sim2, Aggregate: AggMax})
	if err != nil {
		t.Fatal(err)
	}
	if p := pm.MarginalProb("phone", 1); math.Abs(p-1) > 1e-9 {
		t.Errorf("AggMax phone marginal = %f, want 1", p)
	}
	if p := pm.MarginalProb("address.", 0); math.Abs(p-1) > 1e-9 {
		t.Errorf("AggMax address marginal = %f, want 1", p)
	}
}

// TestBuildCanonicalUnderAttrOrder pins the invariant the schema-dedup
// cache relies on: two sources whose schemas are equal as *sets* produce
// identical p-mappings (groups, correspondences, mappings, probabilities)
// regardless of the order their attributes are listed in.
func TestBuildCanonicalUnderAttrOrder(t *testing.T) {
	attrs := []string{"name", "phone", "fone", "email", "addr"}
	m := med([]string{"name"}, []string{"phone", "fone"}, []string{"email"}, []string{"addr"})
	rng := rand.New(rand.NewSource(11))
	base, err := Build(schema.MustNewSource("base", attrs, nil), m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]string{}, attrs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		pm, err := Build(schema.MustNewSource("base", shuffled, nil), m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, pm) {
			t.Fatalf("trial %d: p-mapping differs under attr order %v:\n%+v\nvs\n%+v", trial, shuffled, base, pm)
		}
	}
}

// TestClone checks the deep copy: value-identical (DeepEqual) to the
// original, no shared mutable slices, and nil-ness preserved so a clone
// matches a fresh Build byte-for-byte.
func TestClone(t *testing.T) {
	src := schema.MustNewSource("s", []string{"name", "phone", "fone"}, nil)
	m := med([]string{"name"}, []string{"phone", "fone"})
	pm, err := Build(src, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp := pm.Clone()
	if !reflect.DeepEqual(pm, cp) {
		t.Fatalf("clone not DeepEqual:\n%+v\nvs\n%+v", pm, cp)
	}
	if len(cp.Groups) == 0 {
		t.Fatal("test schema produced no groups")
	}
	// Mutate the clone the way feedback does; the original must not move.
	before := pm.Groups[0].Probs[0]
	cp.Groups[0].Probs[0] = -1
	cp.Groups[0].Corrs[0].Weight = -1
	if len(cp.Groups[0].Mappings) > 1 {
		cp.Groups[0].Mappings[1] = append(cp.Groups[0].Mappings[1], 99)
	}
	if pm.Groups[0].Probs[0] != before || pm.Groups[0].Corrs[0].Weight == -1 {
		t.Fatal("mutating clone changed the original")
	}
	for k, mp := range pm.Groups[0].Mappings {
		for _, ci := range mp {
			if ci == 99 {
				t.Fatalf("mapping %d aliases the clone", k)
			}
		}
	}
	// Conditioning the clone must leave the original untouched.
	if err := cp.Condition("name", 0, true, Config{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(src, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pm, fresh) {
		t.Fatal("conditioning a clone mutated the original p-mapping")
	}
}
