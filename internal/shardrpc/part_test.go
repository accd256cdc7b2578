package shardrpc_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"udi/internal/answer"
	"udi/internal/client"
	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/httpapi"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/shardrpc"
	"udi/internal/sqlparse"
)

// Tests of the one binary body of the protocol, the partial-result frame
// (part.go): the round-trip property, damage, declared-count bounds, the
// fuzz target and its checked-in corpus.

// edgePart is a hand-built result holding what no generated corpus does:
// empty, unicode and separator-bearing values, instances spelling a
// table tuple's key with values of another arity, a table tuple no
// instance carries, unsorted and negative rows, probabilities outside
// [0, 1], an empty run and the largest occurrence count a frame may
// declare.
func edgePart() *answer.ResultSet {
	return &answer.ResultSet{
		Instances: []answer.Instance{
			{Source: "s1", Row: 3, Values: []string{""}, Prob: 0.25},
			{Source: "s1", Row: 1, Values: []string{"a\x1fb"}, Prob: 1},
			{Source: "s1", Row: 1, Values: []string{"a", "b"}, Prob: 1.5},
			{Source: "", Row: -7, Values: []string{"naïve", "日本語", ""}, Prob: math.SmallestNonzeroFloat64},
			{Source: "s1", Row: 1 << 40, Values: []string{}, Prob: 0},
			{Source: "s1", Row: 9, Values: []string{"a", "b"}, Prob: 0.1 + 0.2},
		},
		Tuples: []answer.Tuple{
			{Key: "", Values: []string{""}},
			{Key: "a\x1fb", Values: []string{"a\x1fb"}},
			{Key: "only\x1fhere", Values: []string{"only", "here"}},
			{Key: "naïve\x1f日本語\x1f", Values: []string{"naïve", "日本語", ""}},
		},
		PerSource: []answer.SourceTupleProbs{
			{Source: "s1", IDs: []int32{2, 0, 1}, Probs: []float64{0.5, 0.25, 1}, Occurrences: 5},
			{Source: "", IDs: []int32{3}, Probs: []float64{1e-300}, Occurrences: 1},
			{Source: "s9", IDs: []int32{}, Probs: []float64{}, Occurrences: math.MaxInt32},
		},
	}
}

// roundTrip encodes and decodes rs and requires the decoded merge inputs
// to be reflect.DeepEqual to the originals. A count of zero is the one
// thing not told apart: nil and empty both cross as 0 and come back nil.
func roundTrip(t *testing.T, tag string, epoch uint64, rs *answer.ResultSet) {
	t.Helper()
	got, gotEpoch, err := shardrpc.DecodePart(shardrpc.EncodePart(epoch, rs))
	if err != nil {
		t.Fatalf("%s: decode: %v", tag, err)
	}
	if gotEpoch != epoch {
		t.Fatalf("%s: epoch %d, want %d", tag, gotEpoch, epoch)
	}
	if len(rs.Instances) == 0 && got.Instances != nil || len(rs.PerSource) == 0 && got.PerSource != nil {
		t.Fatalf("%s: an empty section decoded to %+v", tag, got)
	}
	if len(rs.Instances) > 0 && !reflect.DeepEqual(got.Instances, rs.Instances) {
		t.Fatalf("%s: instances differ\n got %+v\nwant %+v", tag, got.Instances, rs.Instances)
	}
	if len(rs.PerSource) > 0 && (!reflect.DeepEqual(got.Tuples, rs.Tuples) || !reflect.DeepEqual(got.PerSource, rs.PerSource)) {
		t.Fatalf("%s: tuple table or runs differ\n got %+v %+v\nwant %+v %+v", tag, got.Tuples, got.PerSource, rs.Tuples, rs.PerSource)
	}
	if got.Ranked != nil {
		t.Fatalf("%s: ranked answers crossed the wire: %v", tag, got.Ranked)
	}
}

// TestPartRoundTripProperty: decode(encode(rs)) is rs, over the
// differential generator's corpora, every approach, queries with and
// without matches, the hand-built edge result and its instances alone (a
// result set with no per-source section, which no approach produces).
func TestPartRoundTripProperty(t *testing.T) {
	roundTrip(t, "empty", 0, &answer.ResultSet{})
	roundTrip(t, "edge", math.MaxUint64, edgePart())
	roundTrip(t, "instances only", 3, &answer.ResultSet{Instances: edgePart().Instances})

	trials := 24
	if testing.Short() {
		trials = 8
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 5))
		sys, err := core.Setup(randomRPCCorpus(rng), core.Config{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("trial %d: setup: %v", trial, err)
		}
		qs := append(rpcTrialQueries(rng, sys.Corpus),
			sqlparse.MustParse("SELECT alpha FROM t WHERE alpha = 'no such value'"))
		for _, q := range qs {
			for _, a := range rpcApproaches {
				rs, err := sys.Snapshot().RunCtx(ctx, a, q)
				if err != nil {
					continue // the approach cannot answer this query on this corpus
				}
				roundTrip(t, fmt.Sprintf("trial %d %s %q", trial, a, q), uint64(trial), rs)
				rs, err = sys.Snapshot().RunInstancesCtx(ctx, a, q)
				if err != nil {
					t.Fatalf("trial %d %s %q: the instance path failed where the by-table one did not: %v", trial, a, q, err)
				}
				roundTrip(t, fmt.Sprintf("trial %d %s %q with instances", trial, a, q), uint64(trial), rs)
			}
		}
	}
}

// emptyMakeCorpus is the empty-string answer's repro: four sources whose
// one row has an empty make.
func emptyMakeCorpus(t *testing.T) *schema.Corpus {
	t.Helper()
	var sources []*schema.Source
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		sources = append(sources, schema.MustNewSource(name, []string{"make", "model"}, [][]string{{"", "x"}}))
	}
	c, err := schema.NewCorpus("Car", sources)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEmptyStringAnswerAcrossTheWire: the one-column answer whose value
// is the empty string crosses the codec and the networked merge as [""],
// agreeing with its own instances and with the single core.
func TestEmptyStringAnswerAcrossTheWire(t *testing.T) {
	corpus := emptyMakeCorpus(t)
	cfg := core.Config{Obs: obs.NewRegistry()}
	oracle, err := core.Setup(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := shardrpc.NewCoordinator(corpus, cfg, startHosts(t, 2, cfg), shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT make FROM Car")
	want, err := oracle.Snapshot().RunInstancesCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "oracle result", 1, want)
	v, err := co.View()
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.RunInstancesCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ranked) != 1 || !reflect.DeepEqual(got.Ranked[0].Values, []string{""}) {
		t.Fatalf(`networked Ranked = %#v, want one answer with Values [""]`, got.Ranked)
	}
	if len(want.Instances) != 4 || !reflect.DeepEqual(got.Ranked, want.Ranked) || !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Fatalf("networked result differs from the single core\n got %+v\nwant %+v", got, want)
	}
	counted, err := v.RunCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counted.Ranked, want.Ranked) || counted.Instances != nil || counted.Occurrences() != len(want.Instances) {
		t.Fatalf("networked by-table result differs from the single core\n got %+v\nwant %+v", counted, want)
	}
}

// smallFrame is a real frame small enough to damage at every byte.
func smallFrame(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(11))
	sys, err := core.Setup(randomRPCCorpus(rng), core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rpcTrialQueries(rng, sys.Corpus) {
		rs, err := sys.Snapshot().RunInstancesCtx(context.Background(), core.UDI, q)
		if err == nil && len(rs.Instances) > 0 {
			return shardrpc.EncodePart(42, rs)
		}
	}
	t.Fatal("no trial query produced instances")
	return nil
}

// TestDamagedPartNeverDecodes is the wal kill-at-every-offset pattern on
// the frame: every single-byte change, every truncation and any trailing
// byte is refused with ErrBadPart — a damaged body can fail, it cannot
// decode to a different ResultSet.
func TestDamagedPartNeverDecodes(t *testing.T) {
	frame := smallFrame(t)
	refused := func(tag string, damaged []byte) {
		t.Helper()
		rs, _, err := shardrpc.DecodePart(damaged)
		if !errors.Is(err, shardrpc.ErrBadPart) || rs != nil {
			t.Fatalf("%s: got (%v, %v), want ErrBadPart", tag, rs, err)
		}
	}
	for off := range frame {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			damaged := slices.Clone(frame)
			damaged[off] ^= mask
			refused(fmt.Sprintf("byte %d ^ %#x", off, mask), damaged)
		}
		refused(fmt.Sprintf("truncated to %d bytes", off), frame[:off])
	}
	refused("one trailing byte", append(slices.Clone(frame), 0))
}

// corruptingTransport damages the body of the first n query-leg answers
// that pass through it: one flipped byte in the middle, length intact.
type corruptingTransport struct {
	base    http.RoundTripper
	left    atomic.Int64
	queries atomic.Int64
}

func (c *corruptingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil || r.URL.Path != "/v1/shard/query" {
		return resp, err
	}
	c.queries.Add(1)
	if c.left.Add(-1) < 0 {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body[len(body)/2] ^= 0x10
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestDamagedBodyIsARetryableTransportError: a query leg whose answer
// arrives damaged is fetched again and the query answers exactly as the
// oracle does; when every answer arrives damaged the read fails typed
// shard_unavailable. Either way no damaged frame reaches the merge.
func TestDamagedBodyIsARetryableTransportError(t *testing.T) {
	corpus := faultCorpus(t)
	cfg := core.Config{Obs: obs.NewRegistry()}
	oracle, err := core.Setup(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &corruptingTransport{base: &http.Transport{}}
	co, err := shardrpc.NewCoordinator(corpus, cfg, startHosts(t, 1, cfg), shardrpc.CoordinatorOptions{
		Obs:    obs.NewRegistry(),
		Client: client.Options{HTTPClient: &http.Client{Transport: tr}, RetryBackoff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT name, phone FROM People")
	want, err := oracle.Snapshot().RunCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := co.View()
	if err != nil {
		t.Fatal(err)
	}

	tr.left.Store(1)
	got, err := v.RunCtx(context.Background(), core.UDI, q)
	if err != nil {
		t.Fatalf("query after one damaged answer: %v", err)
	}
	compareRPCResultSets(t, "after one damaged answer", want, got)
	if n := tr.queries.Load(); n != 2 {
		t.Fatalf("%d query requests, want the damaged one and its retry", n)
	}

	tr.left.Store(math.MaxInt64)
	_, err = v.RunCtx(context.Background(), core.UDI, q)
	se := wantShardUnavailable(t, err)
	if cause, _ := se.Details["cause"].(string); !strings.Contains(cause, "checksum") {
		t.Fatalf("cause %q does not name the checksum", cause)
	}
}

// TestUnknownApproachNeverFansOut: the coordinator's front door refuses
// an approach it does not serve — an unknown name, or one of the §7.3
// baselines — with 400 bad_query before a single shard query leg is sent.
func TestUnknownApproachNeverFansOut(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	tr := &corruptingTransport{base: &http.Transport{}}
	co, err := shardrpc.NewCoordinator(faultCorpus(t), cfg, startHosts(t, 2, cfg), shardrpc.CoordinatorOptions{
		Obs:    obs.NewRegistry(),
		Client: client.Options{HTTPClient: &http.Client{Transport: tr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewBackendServer(co, obs.NewRegistry(), httpapi.Options{}).Handler())
	defer srv.Close()
	query := func(approach string) int {
		body, _ := json.Marshal(client.QueryRequest{Query: "SELECT name FROM People", Approach: approach})
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, approach := range []string{"Bogus", "Source"} {
		if status := query(approach); status != http.StatusBadRequest {
			t.Errorf("approach %q: status %d, want 400", approach, status)
		}
	}
	if n := tr.queries.Load(); n != 0 {
		t.Fatalf("refused approaches sent %d shard query legs, want 0", n)
	}
	if status := query(string(core.Consolidated)); status != http.StatusOK || tr.queries.Load() != 2 {
		t.Fatalf("served approach: status %d after %d legs, want 200 after 2", status, tr.queries.Load())
	}
}

// frameOf closes a hand-written header-less body into a frame the
// trailer checks accept, so the decoder's structural checks are reached.
func frameOf(body ...byte) []byte {
	f := append([]byte("UDIP"), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(f[4:], shardrpc.Version)
	f = append(f, body...)
	f = binary.LittleEndian.AppendUint32(f, uint32(len(f)))
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(f[:len(f)-4]))
}

// TestDecodePartBoundsDeclaredCounts: a count the rest of the frame
// cannot hold is refused before anything is allocated for it, frames over
// MaxPartFrame are refused unread, and a small frame cannot expand into
// more than MaxPartFrame bytes of tuple keys.
func TestDecodePartBoundsDeclaredCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	cases := map[string][]byte{
		"strings":          frameOf(huge...),
		"string length":    frameOf(append([]byte{1}, huge...)...),
		"tuples":           frameOf(append([]byte{0}, huge...)...),
		"arity":            frameOf(append([]byte{0, 1}, huge...)...),
		"instances":        frameOf(append([]byte{0, 0}, huge...)...),
		"run length":       frameOf(append([]byte{1, 0, 1, 1, 0, 1, 0}, huge...)...),
		"sources":          frameOf(append([]byte{0, 0, 0}, huge...)...),
		"occurrences":      frameOf(append([]byte{1, 0, 0, 0, 1, 0}, huge...)...),
		"entries":          frameOf(append([]byte{1, 0, 0, 0, 1, 0, 1}, huge...)...),
		"string id":        frameOf(1, 0, 1, 1, 5, 0, 0),
		"tuple id":         frameOf(1, 0, 0, 1, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"empty run":        frameOf(1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"repeated key":     frameOf(1, 0, 2, 0, 1, 0, 0, 1, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
		"trailing section": frameOf(0, 0, 0, 0, 0),
	}
	for name, frame := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, _, err := shardrpc.DecodePart(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, shardrpc.ErrBadPart) || rs != nil {
			t.Errorf("%s: got (%v, %v), want ErrBadPart", name, rs, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(frame), grew)
		}
	}
	if _, _, err := shardrpc.DecodePart(frameOf(0, 0, 0, 0)); err != nil {
		t.Fatalf("the empty body is a valid frame: %v", err)
	}

	if _, _, err := shardrpc.DecodePart(make([]byte, shardrpc.MaxPartFrame+1)); !errors.Is(err, shardrpc.ErrBadPart) {
		t.Errorf("oversized frame: %v, want ErrBadPart", err)
	}

	// One 64 KiB string named twice by each of 600 tuples: a 70 KB frame
	// whose keys would take 78 MB.
	long := 64 << 10
	body := binary.AppendUvarint([]byte{1}, uint64(long))
	body = append(body, make([]byte, long)...)
	body = binary.AppendUvarint(body, 600)
	for i := 0; i < 600; i++ {
		body = append(body, 2, 0, 0)
	}
	body = append(body, 0, 0)
	if _, _, err := shardrpc.DecodePart(frameOf(body...)); !errors.Is(err, shardrpc.ErrBadPart) {
		t.Errorf("key expansion past MaxPartFrame: %v, want ErrBadPart", err)
	}
}

// TestReadRequestBodiesAreBounded: the read handlers refuse a body over
// httpapi.MaxRequestBody with a typed 413, before parsing it.
func TestReadRequestBodiesAreBounded(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	addrs := startHosts(t, 1, cfg)
	body, _ := json.Marshal(shardrpc.QueryRequest{Proto: shardrpc.Version,
		Query: "SELECT a FROM t WHERE a = '" + strings.Repeat("x", httpapi.MaxRequestBody) + "'"})
	for _, path := range []string{"/v1/shard/query", "/v1/shard/explain", "/v1/shard/candidates"} {
		resp, err := http.Post(addrs[0]+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != httpapi.CodeBodyTooLarge {
			t.Errorf("%s: got %d %q, want 413 %q", path, resp.StatusCode, env.Error.Code, httpapi.CodeBodyTooLarge)
		}
	}
}

// TestVersion1PeersRefused: the protocol version is the only
// compatibility mechanism. A coordinator still speaking version 1 (JSON
// partial results) is refused by this host with protocol_mismatch, and
// this coordinator refuses to start over a version-1 host.
func TestVersion1PeersRefused(t *testing.T) {
	cfg := core.Config{Obs: obs.NewRegistry()}
	c := client.New(startHosts(t, 1, cfg)[0], client.Options{})
	err := c.Do(context.Background(), http.MethodPost, "/v1/shard/query",
		shardrpc.QueryRequest{Proto: 1, Query: "SELECT name FROM t"}, nil, true)
	var se *httpapi.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Code != shardrpc.CodeProtocolMismatch {
		t.Fatalf("version-1 request: %v, want 400 %s", err, shardrpc.CodeProtocolMismatch)
	}

	v1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(shardrpc.StatusResponse{Proto: 1, Ready: true})
	}))
	defer v1.Close()
	_, err = shardrpc.NewCoordinator(faultCorpus(t), cfg, []string{v1.URL}, shardrpc.CoordinatorOptions{Obs: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("coordinator over a version-1 host: %v, want a protocol mismatch", err)
	}
}

// TestLegMetricsRecorded: a query over an enabled registry feeds the host
// and coordinator per-leg histograms.
func TestLegMetricsRecorded(t *testing.T) {
	hostReg, coReg := obs.NewRegistry(), obs.NewRegistry()
	h, err := shardrpc.NewHost(core.Config{Obs: hostReg}, shardrpc.HostOptions{Obs: hostReg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	co, err := shardrpc.NewCoordinator(faultCorpus(t), core.Config{Obs: obs.NewRegistry()}, []string{srv.URL},
		shardrpc.CoordinatorOptions{Obs: coReg})
	if err != nil {
		t.Fatal(err)
	}
	v, err := co.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunCtx(context.Background(), core.UDI, sqlparse.MustParse("SELECT name FROM People")); err != nil {
		t.Fatal(err)
	}
	for reg, names := range map[*obs.Registry][]string{
		hostReg: {"shardrpc.host.encode_seconds", "shardrpc.host.response_bytes"},
		coReg:   {"shardrpc.leg.seconds", "shardrpc.leg.decode_seconds"},
	} {
		for _, name := range names {
			if n := reg.Histogram(name).Count(); n != 1 {
				t.Errorf("%s recorded %d observations, want 1", name, n)
			}
		}
	}
}

// --- fuzzing ------------------------------------------------------------

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite testdata/fuzz/FuzzDecodePart from the Car queries' frames")

const partCorpusDir = "testdata/fuzz/FuzzDecodePart"

// carFrames encodes the ten Car evaluation queries' partial results over
// a 12-source Car corpus, as a by-table leg answers them and with their
// instances listed: real frames, small enough to check in.
func carFrames(t *testing.T) map[string]*answer.ResultSet {
	t.Helper()
	d := datagen.Car(102)
	d.NumSources = 12
	sys, err := core.Setup(datagen.MustGenerate(d).Corpus, core.Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*answer.ResultSet{}
	for i, qs := range d.Queries {
		q := sqlparse.MustParse(qs)
		rs, err := sys.Snapshot().ScanCtx(context.Background(), core.UDI, q, answer.CountOnly)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		out[fmt.Sprintf("seed-car-q%02d", i+1)] = rs
		if rs, err = sys.Snapshot().ScanCtx(context.Background(), core.UDI, q, answer.WithInstances); err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		out[fmt.Sprintf("seed-car-q%02d-instances", i+1)] = rs
	}
	return out
}

// TestPartCorpusIsCarFrames keeps the checked-in fuzz corpus honest:
// every seed is a frame of the current format that decodes to the Car
// query's partial result. After a format change, rerun with
// -update-corpus.
func TestPartCorpusIsCarFrames(t *testing.T) {
	for name, rs := range carFrames(t) {
		path := filepath.Join(partCorpusDir, name)
		if *updateCorpus {
			if err := os.MkdirAll(partCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			seed := "go test fuzz v1\n[]byte(" + strconv.Quote(string(shardrpc.EncodePart(1, rs))) + ")\n"
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test -run TestPartCorpusIsCarFrames -update-corpus)", err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
		frame, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a fuzz seed: %v", path, err)
		}
		got, _, err := shardrpc.DecodePart([]byte(frame))
		if err != nil {
			t.Fatalf("%s: %v (rerun with -update-corpus after a format change)", path, err)
		}
		if !reflect.DeepEqual(got.Instances, rs.Instances) || !reflect.DeepEqual(got.Tuples, rs.Tuples) || !reflect.DeepEqual(got.PerSource, rs.PerSource) {
			t.Errorf("%s no longer decodes to its query's partial result", path)
		}
	}
}

// TestPartFrameIsByteStable: one result encodes to one byte string —
// the part's tuple table and runs cross in their own order — so every
// checked-in seed is exactly what this build writes for its query.
func TestPartFrameIsByteStable(t *testing.T) {
	for name, rs := range carFrames(t) {
		raw, err := os.ReadFile(filepath.Join(partCorpusDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(shardrpc.EncodePart(1, rs))) + ")\n"
		if string(raw) != want {
			t.Errorf("%s: this build encodes its query to other bytes (rerun with -update-corpus after a format change)", name)
		}
		for i := 0; i < 5; i++ {
			if again := shardrpc.EncodePart(1, rs); !bytes.Equal(again, shardrpc.EncodePart(1, rs)) {
				t.Fatalf("%s: two encodings of one result differ", name)
			}
		}
	}
}

// runBits reads a result's runs back as per-source maps from tuple key
// to probability bits.
func runBits(rs *answer.ResultSet) []map[string]uint64 {
	out := make([]map[string]uint64, len(rs.PerSource))
	for i, sp := range rs.PerSource {
		out[i] = make(map[string]uint64, len(sp.IDs))
		for j, id := range sp.IDs {
			out[i][rs.Tuples[id].Key] = math.Float64bits(sp.Probs[j])
		}
	}
	return out
}

// sameBits is DeepEqual on the merge inputs, each run read as a map from
// tuple key to probability bits, so a NaN a fuzzer wrote equals itself.
func sameBits(a, b *answer.ResultSet) bool {
	if len(a.Instances) != len(b.Instances) || len(a.PerSource) != len(b.PerSource) {
		return false
	}
	for i, x := range a.Instances {
		y := b.Instances[i]
		if x.Source != y.Source || x.Row != y.Row || !slices.Equal(x.Values, y.Values) ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) {
			return false
		}
	}
	ab, bb := runBits(a), runBits(b)
	for i, x := range a.PerSource {
		y := b.PerSource[i]
		if x.Source != y.Source || x.Occurrences != y.Occurrences || len(x.IDs) != len(ab[i]) || !maps.Equal(ab[i], bb[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodePart: any input either fails with ErrBadPart or decodes to a
// result that survives its own re-encoding exactly — never a panic, and
// never more decoded elements than the input has bytes to declare them
// (the size-class bound; TestDecodePartBoundsDeclaredCounts measures the
// refusals' allocations directly).
func FuzzDecodePart(f *testing.F) {
	f.Add(smallFrame(f))
	f.Add(shardrpc.EncodePart(7, &answer.ResultSet{}))
	f.Add(shardrpc.EncodePart(1<<63, edgePart()))
	f.Add([]byte{})
	f.Add([]byte("UDIP"))
	f.Add(frameOf(1, 0, 1, 1, 5, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, epoch, err := shardrpc.DecodePart(data)
		if err != nil {
			if !errors.Is(err, shardrpc.ErrBadPart) || rs != nil {
				t.Fatalf("untyped refusal: (%v, %v)", rs, err)
			}
			return
		}
		entries := 0
		for _, sp := range rs.PerSource {
			entries += len(sp.IDs)
		}
		if 10*len(rs.Instances)+9*entries+3*len(rs.PerSource) > len(data) {
			t.Fatalf("%d instances, %d entries, %d sources decoded from %d bytes",
				len(rs.Instances), entries, len(rs.PerSource), len(data))
		}
		again, epoch2, err := shardrpc.DecodePart(shardrpc.EncodePart(epoch, rs))
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if epoch2 != epoch || !sameBits(rs, again) {
			t.Fatalf("round trip changed the result\n got %+v\nwant %+v", again, rs)
		}
	})
}
