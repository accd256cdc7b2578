package shardrpc_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/httpapi/conformance"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// The networked differential harness: a coordinator fanning out over
// real HTTP shard hosts must answer every query bit-identically to both
// the in-process sharded system and the single-core oracle, through
// interleavings of feedback, source additions and removals.
// Probabilities are compared with ==, not a tolerance — the wire
// protocol ships IEEE bit patterns and the merge re-runs the oracle's
// disjunction order, so nothing may drift.

var rpcApproaches = []core.Approach{core.UDI, core.Consolidated}

// startHosts brings up n empty shard hosts over loopback HTTP and
// returns their base URLs. Servers and WAL handles close with the test.
func startHosts(t *testing.T, n int, cfg core.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		srv := httptest.NewServer(h.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(func() { h.Close() })
		addrs[i] = srv.URL
	}
	return addrs
}

func randomRPCCorpus(rng *rand.Rand) *schema.Corpus {
	bases := []string{"alpha", "bravo", "carrot", "delta", "echo", "forest"}
	nBases := 2 + rng.Intn(len(bases)-1)
	nSources := 4 + rng.Intn(6)
	var sources []*schema.Source
	for i := 0; i < nSources; i++ {
		sources = append(sources, randomRPCSource(rng, fmt.Sprintf("s%02d", i), bases[:nBases]))
	}
	c, err := schema.NewCorpus("random", sources)
	if err != nil {
		panic(err)
	}
	return c
}

func randomRPCSource(rng *rand.Rand, name string, bases []string) *schema.Source {
	var attrs []string
	used := map[string]bool{}
	for _, b := range bases {
		if rng.Float64() < 0.6 {
			v := b
			if rng.Intn(2) == 1 {
				v += "s"
			}
			if !used[v] {
				used[v] = true
				attrs = append(attrs, v)
			}
		}
	}
	if len(attrs) == 0 {
		attrs = []string{bases[0]}
	}
	nRows := 1 + rng.Intn(6)
	rows := make([][]string, nRows)
	for r := range rows {
		row := make([]string, len(attrs))
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(8))
		}
		rows[r] = row
	}
	return schema.MustNewSource(name, attrs, rows)
}

func rpcTrialQueries(rng *rand.Rand, corpus *schema.Corpus) []*sqlparse.Query {
	attrs := corpus.FrequentAttrs(0.10)
	if len(attrs) == 0 {
		return nil
	}
	var qs []*sqlparse.Query
	for i := 0; i < 3; i++ {
		sel := attrs[rng.Intn(len(attrs))]
		q := "SELECT " + sel + " FROM t"
		switch rng.Intn(3) {
		case 1:
			q += fmt.Sprintf(" WHERE %s = 'v%d'", attrs[rng.Intn(len(attrs))], rng.Intn(8))
		case 2:
			q += fmt.Sprintf(" WHERE %s != 'v%d'", attrs[rng.Intn(len(attrs))], rng.Intn(8))
		}
		qs = append(qs, sqlparse.MustParse(q))
	}
	return qs
}

// compareNetworked runs the full battery against the coordinator and, as
// a control, the in-process sharded system: schema state, every approach
// on every query, canonicalized explain provenance, and the merged
// feedback-candidate queue.
func compareNetworked(t *testing.T, tag string, oracle *core.System, sh *shard.System, co *shardrpc.Coordinator, qs []*sqlparse.Query) {
	t.Helper()
	ctx := context.Background()
	sn := oracle.Snapshot()
	cv, err := co.View()
	if err != nil {
		t.Fatalf("%s: coordinator view: %v", tag, err)
	}

	if got, want := cv.NumSources(), len(sn.Corpus.Sources); got != want {
		t.Fatalf("%s: coordinator serves %d sources, oracle %d", tag, got, want)
	}
	opm, cpm := sn.Med.PMed, cv.PMed()
	if len(opm.Schemas) != len(cpm.Schemas) {
		t.Fatalf("%s: %d vs %d possible schemas", tag, len(cpm.Schemas), len(opm.Schemas))
	}
	for i := range opm.Schemas {
		if opm.Schemas[i].Key() != cpm.Schemas[i].Key() {
			t.Fatalf("%s: schema %d differs: %q vs %q", tag, i, cpm.Schemas[i].Key(), opm.Schemas[i].Key())
		}
		if opm.Probs[i] != cpm.Probs[i] {
			t.Fatalf("%s: schema %d prob %v vs oracle %v", tag, i, cpm.Probs[i], opm.Probs[i])
		}
	}
	if sn.Target.Key() != cv.Target().Key() {
		t.Fatalf("%s: consolidated target differs", tag)
	}
	if ev := cv.EpochVector(); len(ev) != co.Shards() {
		t.Fatalf("%s: epoch vector has %d entries, %d shards", tag, len(ev), co.Shards())
	}

	for qi, q := range qs {
		for _, a := range rpcApproaches {
			ors, oerr := sn.RunCtx(ctx, a, q)
			crs, cerr := cv.RunCtx(ctx, a, q)
			if (oerr != nil) != (cerr != nil) {
				t.Fatalf("%s: q%d %s: oracle err %v, networked err %v", tag, qi, a, oerr, cerr)
			}
			if oerr != nil {
				continue
			}
			qtag := fmt.Sprintf("%s: q%d %s", tag, qi, a)
			compareRPCResultSets(t, qtag, ors, crs)
			// The instance path ranks the same bits and lists exactly the
			// occurrences the by-table path counts.
			ois, oerr := sn.RunInstancesCtx(ctx, a, q)
			cis, cerr := cv.RunInstancesCtx(ctx, a, q)
			if oerr != nil || cerr != nil {
				t.Fatalf("%s: instance path: oracle err %v, networked err %v", qtag, oerr, cerr)
			}
			if ors.Instances != nil || crs.Instances != nil {
				t.Fatalf("%s: the by-table path listed instances", qtag)
			}
			compareRPCResultSets(t, qtag+" instances", ois, cis)
			compareRPCResultSets(t, qtag+" counts vs instances", ors, &answer.ResultSet{Ranked: ois.Ranked, PerSource: ois.PerSource})
		}
		ors, oerr := sn.RunCtx(ctx, core.UDI, q)
		if oerr != nil || len(ors.Ranked) == 0 {
			continue
		}
		values := ors.Ranked[0].Values
		oc, oerr := sn.ExplainCtx(ctx, q, values)
		cc, cerr := cv.ExplainCtx(ctx, q, values)
		if (oerr != nil) != (cerr != nil) {
			t.Fatalf("%s: q%d explain: oracle err %v, networked err %v", tag, qi, oerr, cerr)
		}
		if oerr != nil {
			continue
		}
		compareRPCContributions(t, fmt.Sprintf("%s: q%d explain", tag, qi), oc, cc)
	}

	// The merged candidate queue must match the in-process sharded merge
	// exactly (same values, same order).
	sv, err := httpapi.ShardBackend(sh).View()
	if err != nil {
		t.Fatalf("%s: sharded view: %v", tag, err)
	}
	want, werr := sv.Candidates(context.Background(), 8)
	got, gerr := cv.Candidates(context.Background(), 8)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: candidates: sharded err %v, networked err %v", tag, werr, gerr)
	}
	if werr == nil {
		if len(want) != len(got) {
			t.Fatalf("%s: %d candidates, sharded %d", tag, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: candidate %d = %+v, sharded %+v", tag, i, got[i], want[i])
			}
		}
	}
}

func compareRPCResultSets(t *testing.T, tag string, want, got *answer.ResultSet) {
	t.Helper()
	if len(want.Ranked) != len(got.Ranked) {
		t.Fatalf("%s: %d ranked answers, oracle %d", tag, len(got.Ranked), len(want.Ranked))
	}
	for i := range want.Ranked {
		w, g := want.Ranked[i], got.Ranked[i]
		if strings.Join(w.Values, "\x1f") != strings.Join(g.Values, "\x1f") {
			t.Fatalf("%s: rank %d values %v, oracle %v", tag, i, g.Values, w.Values)
		}
		if w.Prob != g.Prob {
			t.Fatalf("%s: rank %d (%v) prob %v, oracle %v (diff %g)",
				tag, i, w.Values, g.Prob, w.Prob, g.Prob-w.Prob)
		}
	}
	if len(want.PerSource) != len(got.PerSource) {
		t.Fatalf("%s: %d contributing sources, oracle %d", tag, len(got.PerSource), len(want.PerSource))
	}
	for i := range want.PerSource {
		w, g := want.PerSource[i], got.PerSource[i]
		if w.Source != g.Source || w.Occurrences != g.Occurrences {
			t.Fatalf("%s: source %d is %s with %d occurrences, oracle %s with %d", tag, i, g.Source, g.Occurrences, w.Source, w.Occurrences)
		}
	}
	for _, rs := range []*answer.ResultSet{want, got} {
		if rs.Instances != nil && rs.Occurrences() != len(rs.Instances) {
			t.Fatalf("%s: %d occurrences counted, %d instances listed", tag, rs.Occurrences(), len(rs.Instances))
		}
	}
	if len(want.Instances) != len(got.Instances) {
		t.Fatalf("%s: %d instances, oracle %d", tag, len(got.Instances), len(want.Instances))
	}
	for i := range want.Instances {
		w, g := want.Instances[i], got.Instances[i]
		if w.Source != g.Source || w.Row != g.Row || w.Prob != g.Prob ||
			strings.Join(w.Values, "\x1f") != strings.Join(g.Values, "\x1f") {
			t.Fatalf("%s: instance %d = %+v, oracle %+v", tag, i, g, w)
		}
	}
}

func rpcContributionKey(c answer.Contribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x|%s|%d|", c.Mass, c.Source, c.SchemaIdx)
	idxs := make([]int, 0, len(c.MedToSrc))
	for k := range c.MedToSrc {
		idxs = append(idxs, k)
	}
	sort.Ints(idxs)
	for _, k := range idxs {
		fmt.Fprintf(&b, "%d=%s;", k, c.MedToSrc[k])
	}
	fmt.Fprintf(&b, "|%v", c.Rows)
	return b.String()
}

func compareRPCContributions(t *testing.T, tag string, want, got []answer.Contribution) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d contributions, oracle %d", tag, len(got), len(want))
	}
	wk := make([]string, len(want))
	gk := make([]string, len(got))
	for i := range want {
		wk[i] = rpcContributionKey(want[i])
		gk[i] = rpcContributionKey(got[i])
	}
	sort.Strings(wk)
	sort.Strings(gk)
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: contribution %d = %s, oracle %s", tag, i, gk[i], wk[i])
		}
	}
}

// mutateNetworked applies one random mutation identically to oracle,
// in-process sharded system, and networked coordinator, and checks that
// all three agree on outcome and fast/rebuild path.
func mutateNetworked(t *testing.T, rng *rand.Rand, oracle *core.System, sh *shard.System, co *shardrpc.Coordinator, nextID *int) {
	t.Helper()
	switch rng.Intn(4) {
	case 0, 1: // feedback on a random existing correspondence
		srcs := oracle.Corpus.Sources
		src := srcs[rng.Intn(len(srcs))]
		pms := oracle.Maps[src.Name]
		l := rng.Intn(len(pms))
		for _, g := range pms[l].Groups {
			if len(g.Corrs) == 0 {
				continue
			}
			c := g.Corrs[rng.Intn(len(g.Corrs))]
			fb := core.Feedback{Source: src.Name, SrcAttr: c.SrcAttr,
				SchemaIdx: l, MedIdx: c.MedIdx, Confirmed: rng.Float64() < 0.5}
			oerr := oracle.SubmitFeedback(fb)
			serr := sh.SubmitFeedback(fb)
			cerr := co.SubmitFeedback(fb)
			if (oerr != nil) != (cerr != nil) || (oerr != nil) != (serr != nil) {
				t.Fatalf("feedback %+v: oracle err %v, sharded err %v, networked err %v", fb, oerr, serr, cerr)
			}
			return
		}
	case 2: // add a fresh random source
		src := randomRPCSource(rng, fmt.Sprintf("x%02d", *nextID), []string{"alpha", "bravo", "carrot", "delta"})
		*nextID++
		ofast, oerr := oracle.AddSources([]*schema.Source{src})
		sfast, serr := sh.AddSources([]*schema.Source{src})
		cfast, cerr := co.AddSources([]*schema.Source{src})
		if (oerr != nil) != (cerr != nil) || (oerr != nil) != (serr != nil) {
			t.Fatalf("add %s: oracle err %v, sharded err %v, networked err %v", src.Name, oerr, serr, cerr)
		}
		if oerr == nil && (ofast != cfast || ofast != sfast) {
			t.Fatalf("add %s: oracle fast=%v, sharded fast=%v, networked fast=%v", src.Name, ofast, sfast, cfast)
		}
	case 3: // remove a random source (never the last)
		if len(oracle.Corpus.Sources) <= 1 {
			return
		}
		name := oracle.Corpus.Sources[rng.Intn(len(oracle.Corpus.Sources))].Name
		ofast, oerr := oracle.RemoveSource(name)
		sfast, serr := sh.RemoveSource(name)
		cfast, cerr := co.RemoveSource(name)
		if (oerr != nil) != (cerr != nil) || (oerr != nil) != (serr != nil) {
			t.Fatalf("remove %s: oracle err %v, sharded err %v, networked err %v", name, oerr, serr, cerr)
		}
		if oerr == nil && (ofast != cfast || ofast != sfast) {
			t.Fatalf("remove %s: oracle fast=%v, sharded fast=%v, networked fast=%v", name, ofast, sfast, cfast)
		}
	}
}

// TestNetworkedDifferential is the headline networked contract:
// randomized trials cycling shard counts {1,2,4,8}, each interleaving
// queries with feedback, additions and removals, every answer compared
// bit-for-bit against the single-core oracle over real HTTP round trips.
func TestNetworkedDifferential(t *testing.T) {
	trials := 16
	muts := 3
	if testing.Short() {
		trials = 8
		muts = 2
	}
	counts := []int{1, 2, 4, 8}
	for trial := 0; trial < trials; trial++ {
		shards := counts[trial%len(counts)]
		t.Run(fmt.Sprintf("trial%02d_shards%d", trial, shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 31))
			corpus := randomRPCCorpus(rng)
			cfg := core.Config{Obs: obs.NewRegistry()}
			oracle, err := core.Setup(corpus, cfg)
			if err != nil {
				t.Fatalf("oracle setup: %v", err)
			}
			sh, err := shard.New(corpus, cfg, shard.Options{Shards: shards})
			if err != nil {
				t.Fatalf("sharded setup: %v", err)
			}
			addrs := startHosts(t, shards, cfg)
			co, err := shardrpc.NewCoordinator(corpus, cfg, addrs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatalf("coordinator setup: %v", err)
			}
			if got := co.Shards(); got != shards {
				t.Fatalf("Shards = %d, want %d", got, shards)
			}
			nextID := 0
			compareNetworked(t, "initial", oracle, sh, co, rpcTrialQueries(rng, oracle.Corpus))
			for m := 0; m < muts; m++ {
				mutateNetworked(t, rng, oracle, sh, co, &nextID)
				compareNetworked(t, fmt.Sprintf("after mutation %d", m),
					oracle, sh, co, rpcTrialQueries(rng, oracle.Corpus))
			}
		})
	}
}

// TestNetworkedEpochAdvances checks the conformance-critical epoch
// contract over the wire: a routed mutation strictly advances the
// coordinator's summed epoch vector.
func TestNetworkedEpochAdvances(t *testing.T) {
	spec := datagen.People(7)
	spec.NumSources = 8
	c := datagen.MustGenerate(spec)
	cfg := core.Config{Obs: obs.NewRegistry()}
	addrs := startHosts(t, 4, cfg)
	co, err := shardrpc.NewCoordinator(c.Corpus, cfg, addrs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	v, err := co.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	before := v.Epoch()
	cands, err := v.Candidates(context.Background(), 1)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v (%d)", err, len(cands))
	}
	fb := core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
		SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}
	if err := co.SubmitFeedback(fb); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	v2, err := co.View()
	if err != nil {
		t.Fatalf("view after: %v", err)
	}
	if v2.Epoch() <= before {
		t.Fatalf("epoch %d did not advance past %d after feedback", v2.Epoch(), before)
	}
}

// TestCoordinatorConformance runs the Backend contract suite against a
// networked coordinator over four real HTTP shard hosts.
func TestCoordinatorConformance(t *testing.T) {
	spec := datagen.People(211)
	spec.NumSources = 16
	c := datagen.MustGenerate(spec)
	cfg := core.Config{Obs: obs.NewRegistry()}
	addrs := startHosts(t, 4, cfg)
	co, err := shardrpc.NewCoordinator(c.Corpus, cfg, addrs, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	oracle, err := core.Setup(c.Corpus, core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Run(t, co, oracle)
}
