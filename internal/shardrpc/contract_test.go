package shardrpc_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udi/internal/answer"
	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/httpapi"
	"udi/internal/mediate"
	"udi/internal/obs"
	"udi/internal/persist"
	"udi/internal/pmapping"
	"udi/internal/schema"
	"udi/internal/shard"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
	"udi/internal/wal"
)

// The shard.Shard contract as one suite over both transports — the
// in-process shard.Local and a stub driving a Host over HTTP (which serves
// a Local): a stateless shard bootstrapping from a change (an empty one
// included), the idempotence of Restructure, the refusal of a mediation
// the held p-mappings were not built for, and the empty↔non-empty store
// lifecycle, warm restart included.

// transport starts one shard over dir ("" = in-memory) and returns it:
// stateless unless dir holds a checkpoint, in which case it warm-starts —
// so starting again on the same dir after Close is a restart. It registers
// its own cleanup.
type transport func(t *testing.T, cfg core.Config, dir string) shard.Shard

var transports = map[string]transport{
	"local": func(t *testing.T, cfg core.Config, dir string) shard.Shard {
		l := shard.NewLocal(cfg, dir, persist.StoreOptions{NoSync: true})
		if err := l.Open(); err != nil {
			t.Fatalf("open %q: %v", dir, err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	},
	"host": func(t *testing.T, cfg core.Config, dir string) shard.Shard { return startHosted(t, cfg, dir) },
}

// contractFixture is a corpus on an uncertain edge (telephone ~ tel gives two
// possible schemas), split into the sources a shard holds and a batch
// whose arrival keeps the clusterings and shifts their probabilities —
// so a mediation push is observable in the answers.
type contractFixture struct {
	cfg         core.Config
	held, batch []*schema.Source
	blue        *core.System    // global setup over held
	grown       *mediate.Result // the fast plan for held + batch
	order       []string
	queries     []*sqlparse.Query
}

func newFixture(t *testing.T) *contractFixture {
	t.Helper()
	f := &contractFixture{cfg: core.Config{Obs: obs.Disabled}}
	for i, attrs := range [][]string{
		{"telephone", "bravo"}, {"tel", "bravo"}, {"telephone", "tel", "bravo"},
		{"telephone", "bravo"}, {"tel", "bravo"}, {"telephone", "bravo"},
		{"telephone", "tel", "bravo"}, {"tel", "bravo"},
	} {
		rows := make([][]string, 3)
		for r := range rows {
			for c := range attrs {
				rows[r] = append(rows[r], fmt.Sprintf("v%d", (i+r+c)%4))
			}
		}
		src := schema.MustNewSource(fmt.Sprintf("s%02d", i), attrs, rows)
		f.order = append(f.order, src.Name)
		if i < 6 {
			f.held = append(f.held, src)
		} else {
			f.batch = append(f.batch, src)
		}
	}
	var err error
	if f.blue, err = core.Setup(corpusOf(t, f.held), f.cfg); err != nil {
		t.Fatal(err)
	}
	var fast bool
	f.grown, fast, err = core.PlanMediation(f.blue.Med.PMed, corpusOf(t, append(f.held[:6:6], f.batch...)), f.cfg.Mediate)
	if err != nil || !fast || f.blue.Med.PMed.Len() < 2 || reflect.DeepEqual(f.grown.PMed.Probs, f.blue.Med.PMed.Probs) {
		t.Fatalf("fixture: want a fast plan over >=2 schemas with shifted probabilities (fast=%v err=%v probs %v -> %v)",
			fast, err, f.blue.Med.PMed.Probs, f.grown.PMed.Probs)
	}
	for _, q := range []string{"SELECT telephone FROM t", "SELECT tel, bravo FROM t", "SELECT bravo FROM t WHERE telephone = 'v1'"} {
		f.queries = append(f.queries, sqlparse.MustParse(q))
	}
	return f
}

func corpusOf(t *testing.T, srcs []*schema.Source) *schema.Corpus {
	t.Helper()
	c, err := schema.NewCorpus("contract", srcs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func names(srcs []*schema.Source) []string {
	out := make([]string, len(srcs))
	for i, src := range srcs {
		out[i] = src.Name
	}
	return out
}

// setup is the change a coordinator's setup (or a rebuild) sends a shard
// that is to hold srcs: their rows and the blueprint's p-mappings.
func (f *contractFixture) setup(srcs []*schema.Source) shard.Change {
	ch := shard.Change{Domain: "contract", Sources: names(srcs), Add: srcs, Med: f.blue.Med, Target: f.blue.Target,
		Maps: map[string][]*pmapping.PMapping{}}
	for _, src := range srcs {
		ch.Maps[src.Name] = f.blue.Maps[src.Name]
	}
	return ch
}

// adopt is the fast-path change that grows the held corpus by add under
// the grown mediation, the newcomers' p-mappings built the coordinator's
// way.
func (f *contractFixture) adopt(t *testing.T, add []*schema.Source) shard.Change {
	t.Helper()
	built, err := core.SetupUnder(corpusOf(t, add), f.cfg, f.grown)
	if err != nil {
		t.Fatal(err)
	}
	return shard.Change{Domain: "contract", Sources: names(append(f.held[:len(f.held):len(f.held)], add...)), Add: add,
		Med: f.grown, Target: f.blue.Target, Maps: built.Maps}
}

// keep is the change that leaves the shard holding exactly srcs, with
// their own p-mappings, under med.
func (f *contractFixture) keep(srcs []*schema.Source, med *mediate.Result) shard.Change {
	return shard.Change{Domain: "contract", Sources: names(srcs), Med: med, Target: f.blue.Target}
}

func must(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// verb runs one structural verb the way the coordinator does: apply, then
// checkpoint.
func verb(t *testing.T, sh shard.Shard, what string, err error) {
	t.Helper()
	must(t, what, err)
	must(t, what+": checkpoint", sh.Checkpoint())
}

// answers runs the fixture queries on the shard's current state, ranked
// by the coordinator's own merge so both transports' legs compare alike.
func (f *contractFixture) answers(t *testing.T, sh shard.Shard) [][]answer.Answer {
	t.Helper()
	var out [][]answer.Answer
	for _, q := range f.queries {
		rs, err := sh.Pin().Run(context.Background(), core.UDI, q, answer.CountOnly)
		must(t, q.String(), err)
		out = append(out, answer.MergeResultSets(f.order, []*answer.ResultSet{rs}).Ranked)
	}
	return out
}

func wantSame(t *testing.T, what string, want, got [][]answer.Answer) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: answers differ\nwant %v\n got %v", what, want, got)
	}
}

// storeFiles lists what a shard keeps in its directory.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestShardContract(t *testing.T) {
	for name, start := range transports {
		t.Run(name, func(t *testing.T) { shardContract(t, start) })
	}
}

func shardContract(t *testing.T, start transport) {
	f := newFixture(t)

	t.Run("Bootstrap", func(t *testing.T) {
		sh := start(t, f.cfg, "")
		// A stateless shard holds nothing, so a change naming sources
		// without their rows is refused — and leaves it stateless.
		if err := sh.Restructure(f.keep(f.held, f.blue.Med)); err == nil {
			t.Fatal("a stateless shard accepted sources it has no rows for")
		}
		verb(t, sh, "bootstrap", sh.Restructure(f.setup(f.held)))
		var want [][]answer.Answer
		for _, q := range f.queries {
			rs, err := f.blue.Snapshot().ScanCtx(context.Background(), core.UDI, q, answer.CountOnly)
			must(t, q.String(), err)
			want = append(want, answer.MergeResultSets(f.order, []*answer.ResultSet{rs}).Ranked)
		}
		wantSame(t, "bootstrapped shard vs the blueprint", want, f.answers(t, sh))
	})

	t.Run("Empty", func(t *testing.T) {
		sh := start(t, f.cfg, "")
		verb(t, sh, "empty bootstrap", sh.Restructure(f.keep(nil, f.blue.Med)))
		for _, ranked := range f.answers(t, sh) {
			if len(ranked) != 0 {
				t.Fatalf("an empty shard answered %v", ranked)
			}
		}
		verb(t, sh, "first sources", sh.Restructure(f.setup(f.held)))
		pristine := f.answers(t, sh)
		verb(t, sh, "emptied", sh.Restructure(f.keep(nil, f.blue.Med)))
		for _, ranked := range f.answers(t, sh) {
			if len(ranked) != 0 {
				t.Fatalf("an emptied shard answered %v", ranked)
			}
		}
		verb(t, sh, "refilled", sh.Restructure(f.setup(f.held)))
		wantSame(t, "refilled shard", pristine, f.answers(t, sh))
	})

	t.Run("AdoptTwiceIsAdoptOnce", func(t *testing.T) {
		sh := start(t, f.cfg, "")
		verb(t, sh, "bootstrap", sh.Restructure(f.setup(f.held)))
		before := f.answers(t, sh)
		verb(t, sh, "adopt", sh.Restructure(f.adopt(t, f.batch)))
		epoch, once := sh.Pin().Epoch(), f.answers(t, sh)
		if reflect.DeepEqual(before, once) {
			t.Fatal("adopting the batch moved no answer; the fixture cannot see an adopt")
		}
		verb(t, sh, "adopt again", sh.Restructure(f.adopt(t, f.batch)))
		if got := sh.Pin().Epoch(); got != epoch+1 {
			t.Errorf("second adopt: epoch %d -> %d, want one commit", epoch, got)
		}
		wantSame(t, "second adopt", once, f.answers(t, sh))

		// A redo that finds part of the batch already held adopts the rest.
		part := start(t, f.cfg, "")
		verb(t, part, "bootstrap", part.Restructure(f.setup(f.held)))
		verb(t, part, "adopt part", part.Restructure(f.adopt(t, f.batch[:1])))
		verb(t, part, "adopt all", part.Restructure(f.adopt(t, f.batch)))
		wantSame(t, "adopt over a partly held batch", once, f.answers(t, part))
	})

	t.Run("DropOfAbsentNameInstallsTheMediation", func(t *testing.T) {
		// A drop is a change that no longer lists the name; its redo finds
		// the name already absent and must still install the mediation,
		// as one more commit.
		sh, twin := start(t, f.cfg, ""), start(t, f.cfg, "")
		verb(t, sh, "bootstrap", sh.Restructure(f.setup(f.held)))
		verb(t, twin, "bootstrap", twin.Restructure(f.setup(f.held)))
		before := f.answers(t, sh)
		verb(t, twin, "mediation", twin.Restructure(f.keep(f.held[1:], f.grown)))
		if reflect.DeepEqual(before, f.answers(t, twin)) {
			t.Fatal("the mediation push moved no answer; the fixture cannot see one")
		}
		verb(t, sh, "drop", sh.Restructure(f.keep(f.held[1:], f.blue.Med)))
		verb(t, sh, "drop of the absent name", sh.Restructure(f.keep(f.held[1:], f.grown)))
		wantSame(t, "drop of an absent name vs mediation push", f.answers(t, twin), f.answers(t, sh))
		if a, b := sh.Pin().Epoch(), twin.Pin().Epoch(); a != b+1 {
			t.Errorf("epochs %d vs %d: the redone drop did not commit exactly once", a, b)
		}
	})

	t.Run("ForeignClusteringRefused", func(t *testing.T) {
		// The refreshed mediation with its schema sequence reversed: the
		// same clusterings, but not the order the held p-mappings are
		// indexed by.
		n := f.grown.PMed.Len()
		schemas, probs := make([]*schema.MediatedSchema, n), make([]float64, n)
		for i := range schemas {
			schemas[i], probs[i] = f.grown.PMed.Schemas[n-1-i], f.grown.PMed.Probs[n-1-i]
		}
		reversed, err := schema.NewPMedSchema(schemas, probs)
		must(t, "reverse", err)

		sh := start(t, f.cfg, "")
		verb(t, sh, "bootstrap", sh.Restructure(f.setup(f.held)))
		before, epoch := f.answers(t, sh), sh.Pin().Epoch()
		err = sh.Restructure(f.keep(f.held, &mediate.Result{PMed: reversed}))
		if err == nil {
			t.Fatal("a reordered schema sequence was accepted over held sources")
		}
		var se *httpapi.StatusError
		if _, remote := sh.(hostedShard); remote && (!errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Code != httpapi.CodeBadQuery) {
			t.Fatalf("remote refusal: %v, want 400 %s", err, httpapi.CodeBadQuery)
		}
		wantSame(t, "after the refusal", before, f.answers(t, sh))
		if got := sh.Pin().Epoch(); got != epoch {
			t.Errorf("refused restructure moved the epoch %d -> %d", epoch, got)
		}
	})

	t.Run("RestructureTwiceConverges", func(t *testing.T) {
		sh := start(t, f.cfg, "")
		verb(t, sh, "bootstrap", sh.Restructure(f.setup(f.held)))
		epoch, once := sh.Pin().Epoch(), f.answers(t, sh)
		verb(t, sh, "again", sh.Restructure(f.setup(f.held)))
		if got := sh.Pin().Epoch(); got != epoch+1 {
			t.Errorf("second restructure: epoch %d -> %d, want one commit", epoch, got)
		}
		wantSame(t, "second restructure", once, f.answers(t, sh))
		// A rebuild's change carries no rows for sources the shard holds.
		rebuild := f.setup(f.held)
		rebuild.Add = nil
		verb(t, sh, "rows-less rebuild", sh.Restructure(rebuild))
		wantSame(t, "rows-less rebuild", once, f.answers(t, sh))
	})

	t.Run("StoreLifecycle", func(t *testing.T) {
		// A donor shard produces a real WAL holding one feedback record.
		donorDir := t.TempDir()
		donor := start(t, f.cfg, donorDir)
		verb(t, donor, "donor bootstrap", donor.Restructure(f.setup(f.held)))
		pristine := f.answers(t, donor)
		cands, err := donor.Pin().Candidates(context.Background(), 1)
		if err != nil || len(cands) == 0 {
			t.Fatalf("donor candidates: %v (%d)", err, len(cands))
		}
		fb := core.Feedback{Source: cands[0].Source, SrcAttr: cands[0].SrcAttr,
			SchemaIdx: cands[0].SchemaIdx, MedIdx: cands[0].MedIdx, Confirmed: true}
		must(t, "donor feedback", donor.Feedback(fb))
		fedBack := f.answers(t, donor)
		if reflect.DeepEqual(pristine, fedBack) {
			t.Fatal("the feedback moved no answer; the fixture cannot see a replay")
		}
		must(t, "donor close", donor.Close())
		staleWAL, err := os.ReadFile(filepath.Join(donorDir, "wal.log"))
		if err != nil || len(staleWAL) == 0 {
			t.Fatalf("donor left no WAL: %v", err)
		}

		// An empty shard keeps no store files.
		dir := t.TempDir()
		sh := start(t, f.cfg, dir)
		verb(t, sh, "empty bootstrap", sh.Restructure(f.keep(nil, f.blue.Med)))
		if got := storeFiles(t, dir); len(got) != 0 {
			t.Fatalf("empty shard keeps files: %v", got)
		}
		// A crash can strand a WAL in an emptied shard's directory. The
		// first source opens a store and checkpoints — without replaying it.
		must(t, "plant stale wal", os.MkdirAll(dir, 0o755))
		must(t, "plant stale wal", os.WriteFile(filepath.Join(dir, "wal.log"), staleWAL, 0o644))
		verb(t, sh, "first sources", sh.Restructure(f.setup(f.held)))
		if !persist.HasSnapshot(dir) {
			t.Fatalf("first source wrote no checkpoint; files: %v", storeFiles(t, dir))
		}
		wantSame(t, "first checkpoint over a stale WAL", pristine, f.answers(t, sh))

		// Logged feedback survives close + reopen on the same directory.
		must(t, "feedback", sh.Feedback(fb))
		wantSame(t, "feedback", fedBack, f.answers(t, sh))
		must(t, "close", sh.Close())
		sh = start(t, f.cfg, dir)
		wantSame(t, "after restart", fedBack, f.answers(t, sh))

		// The last source leaving takes the store files with it.
		for i, src := range f.held {
			verb(t, sh, "drop "+src.Name, sh.Restructure(f.keep(f.held[i+1:], f.blue.Med)))
		}
		if got := storeFiles(t, dir); len(got) != 0 {
			t.Fatalf("emptied shard keeps files: %v", got)
		}
		must(t, "close emptied", sh.Close())
	})
}

// hostedShard is a stub whose Close also stops the host it talks to, so
// the contract suite's close + start-again on one directory is a real
// host restart.
type hostedShard struct {
	shard.Shard
	host *shardrpc.Host
	srv  *httptest.Server
}

func (h hostedShard) Close() error {
	h.srv.Close()
	return h.host.Close()
}

func startHosted(t *testing.T, cfg core.Config, dir string) hostedShard {
	t.Helper()
	h, err := shardrpc.NewHost(cfg, shardrpc.HostOptions{DataDir: dir, Store: persist.StoreOptions{NoSync: true}, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("host on %q: %v", dir, err)
	}
	srv := httptest.NewServer(h.Handler())
	hs := hostedShard{Shard: shardrpc.NewStub(srv.URL), host: h, srv: srv}
	t.Cleanup(func() { hs.Close() })
	return hs
}

// TestHostWarmRestartShipsItsWAL: a durable host restarted on its data
// directory serves the pre-restart answers (checkpoint + replayed
// feedback) and a /v1/wal tail that still CRC-validates, so a replica can
// keep following it.
func TestHostWarmRestartShipsItsWAL(t *testing.T) {
	ctx := context.Background()
	cfg, dir := core.Config{Obs: obs.NewRegistry()}, t.TempDir()
	hs := startHosted(t, cfg, dir)
	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{hs.srv.URL}, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	v, q := probeQuery(t, co)
	fb := firstCandidateFeedback(t, v)
	for i := 0; i < 2; i++ {
		if err := co.SubmitFeedback(fb); err != nil {
			t.Fatalf("feedback: %v", err)
		}
	}
	before, err := hs.Pin().Run(ctx, core.UDI, q, answer.WithInstances)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	hs = startHosted(t, cfg, dir)
	if hs.host.Sys() == nil || hs.host.Store() == nil {
		t.Fatal("restarted host did not warm-start from its data directory")
	}
	after, err := hs.Pin().Run(ctx, core.UDI, q, answer.WithInstances)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Instances) == 0 || !reflect.DeepEqual(before.Instances, after.Instances) || !reflect.DeepEqual(before.PerSource, after.PerSource) {
		t.Fatalf("answers differ across the restart:\nbefore %+v\n after %+v", before, after)
	}
	status, _, _, body := getEnvelope(t, hs.srv.URL+"/v1/wal?from=0")
	if status != http.StatusOK {
		t.Fatalf("tail fetch: status %d", status)
	}
	recs, err := wal.ReadFrames(body)
	if err != nil || len(recs) != 2 {
		t.Fatalf("restarted host shipped %d records (%v), want the 2 logged feedback ops", len(recs), err)
	}
}

// TestClientSchemaCarriesRouting: the typed client decodes /v1/schema
// into the server's own response struct, so the routing report a
// coordinator with a replica read set serves reaches the caller.
func TestClientSchemaCarriesRouting(t *testing.T) {
	rs := startRoutedSystem(t, true, shardrpc.CoordinatorOptions{})
	srv := httptest.NewServer(httpapi.NewBackendServer(rs.co, obs.NewRegistry(), httpapi.Options{}).Handler())
	defer srv.Close()
	sc, err := client.New(srv.URL, client.Options{}).Schema(context.Background())
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if sc.Routing == nil || len(sc.Routing.Shards) != 1 {
		t.Fatalf("routing report = %+v, want one shard read set", sc.Routing)
	}
	members := sc.Routing.Shards[0].Members
	if len(members) != 2 || members[0].Role != "primary" || members[1].Role != "replica" || members[1].Addr != rs.replicaURL {
		t.Fatalf("members = %+v, want the primary and the replica at %s", members, rs.replicaURL)
	}
	if len(sc.Schemas) == 0 || sc.Shards != 1 {
		t.Fatalf("schema body lost its other fields: %d schemas, %d shards", len(sc.Schemas), sc.Shards)
	}
}
