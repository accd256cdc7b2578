package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udi/internal/answer"
	"udi/internal/core"
	"udi/internal/httpapi"
	"udi/internal/sqlparse"
)

// Tracing lives entirely in the harness: spans are recorded around calls
// into the layers' public functions and by middleware wrapped around
// handlers the harness owns. Nothing under internal/ knows it is traced.

// reqHeader carries the harness's request id from the client-side span to
// the server-side ones, so spans of one request share an identifier.
const reqHeader = "X-Bench-Req"

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; Parent is the id of the tightest enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. While off it records
// nothing, which is how the traced pass measures its own overhead against
// an otherwise identical window.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	req   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, req uint64, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: -1, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// timed records fn as a direct-call span.
func (r *recorder) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	r.add(name, 0, t0, time.Now())
}

// request runs fn as one client-side request span under a fresh request
// id. A nil recorder just runs fn.
func (r *recorder) request(name string, fn func(context.Context)) {
	if r == nil {
		fn(context.Background())
		return
	}
	id := r.req.Add(1)
	t0 := time.Now()
	fn(withReq(context.Background(), id))
	r.add(name, id, t0, time.Now())
}

type reqKey struct{}

func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// reqTransport stamps outgoing client requests with the request id their
// context carries.
type reqTransport struct{ base http.RoundTripper }

func (t reqTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := reqOf(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// traceHandler records one span per request served by next, named by the
// request. The request id comes from the header when the caller is the
// harness's own client; shard legs arrive without one and are attributed
// by interval containment, which is why the traced pass drives one client.
func traceHandler(rec *recorder, name func(*http.Request) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id != 0 {
			r = r.WithContext(withReq(r.Context(), id))
		}
		next.ServeHTTP(w, r)
		rec.add(name(r), id, t0, time.Now())
	})
}

// publicSpan names the public surface's spans: queries are the layer the
// metrics describe, everything else (mutations, the final checks' schema
// reads) is kept apart from them.
func publicSpan(r *http.Request) string {
	if r.URL.Path == "/v1/query" {
		return "httpapi.handle"
	}
	return "httpapi.other"
}

// tracedBackend records a backend.run span around every View.RunCtx the
// HTTP layer makes, so httpapi's self time is its handler span minus this.
type tracedBackend struct {
	httpapi.Backend
	rec *recorder
}

func (b tracedBackend) View() (httpapi.View, error) {
	v, err := b.Backend.View()
	if err != nil {
		return nil, err
	}
	return tracedView{View: v, rec: b.rec}, nil
}

type tracedView struct {
	httpapi.View
	rec *recorder
}

func (v tracedView) RunCtx(ctx context.Context, a core.Approach, q *sqlparse.Query) (*answer.ResultSet, error) {
	t0 := time.Now()
	rs, err := v.View.RunCtx(ctx, a, q)
	v.rec.add("backend.run", reqOf(ctx), t0, time.Now())
	return rs, err
}

// wireCounter counts the coordinator's shard RPC traffic exactly: one
// request per RoundTrip, bytes as request body plus response body.
type wireCounter struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
}

func (c *wireCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// link sets every span's parent to the tightest span that encloses it.
// Spans that share a request id nest among themselves; spans without one
// (direct calls, and shard legs, which arrive without the header) nest
// among themselves and then, if still rootless, under the tightest
// enclosing span of a request, whose id they inherit. That last step is
// attribution by interval containment, sound only while one request is in
// flight per shard host.
func link(spans []span) {
	groups := map[uint64][]int{}
	for i, s := range spans {
		groups[s.Req] = append(groups[s.Req], i)
	}
	for _, g := range groups {
		nest(spans, g)
	}
	for _, i := range groups[0] {
		s := &spans[i]
		if s.Parent >= 0 {
			continue
		}
		for j, p := range spans {
			if p.Req != 0 && encloses(p, *s) && (s.Parent < 0 || encloses(spans[s.Parent], p)) {
				s.Parent = j
			}
		}
	}
	for _, i := range groups[0] {
		for a := spans[i].Parent; a >= 0 && spans[i].Req == 0; a = spans[a].Parent {
			spans[i].Req = spans[a].Req
		}
	}
}

func encloses(p, s span) bool { return p.Start <= s.Start && s.End <= p.End && p.ID != s.ID }

// nest links a set of spans whose intervals nest or are disjoint.
func nest(spans []span, idx []int) {
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := spans[idx[a]], spans[idx[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	for _, i := range idx {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// unionNS is the total length covered by a set of [start,end) intervals.
func unionNS(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// selfNS is each span's duration minus the part its children cover, keyed
// by span id. Spans must be linked.
func selfNS(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			kids[s.Parent] = append(kids[s.Parent], [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - unionNS(kids[i])
	}
	return self
}

// layerTimes gathers, per span name, the durations and self times in
// milliseconds. Shard legs fold into one name.
func layerTimes(spans []span) (dur, self map[string][]float64) {
	sn := selfNS(spans)
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "shardrpc.leg") {
			name = "shardrpc.leg"
		}
		dur[name] = append(dur[name], ms(s.End-s.Start))
		self[name] = append(self[name], ms(sn[i]))
	}
	return dur, self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
