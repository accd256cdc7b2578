package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"udi/internal/client"
)

// sample is one request of a window, timed from the window's start.
type sample struct {
	start, end time.Duration
	ok         bool // answered, and the answer passed its check
}

// newClient is one connection's worth of client: every load goroutine owns
// its own, so N clients means N connections. Under a recorder its requests
// carry their span's id to the server.
func newClient(base string, rec *recorder) *client.Client {
	if rec == nil {
		return client.New(base, client.Options{})
	}
	return client.New(base, client.Options{HTTPClient: &http.Client{Transport: reqTransport{base: &http.Transport{}}}})
}

// queryOrder is the order in which client c walks the mix in each of its
// rounds: every round holds every query once, shuffled by a generator
// seeded from the run's seed and the client's number. A fixed round-robin
// lets two closed-loop clients lock into one pairing of cheap and costly
// queries for a whole run, and which pairing differs from run to run;
// shuffling every round averages over the pairings inside each run.
type queryOrder struct {
	rng  *rand.Rand
	perm []int
	next int
}

func newQueryOrder(seed int64, c, queries int) *queryOrder {
	return &queryOrder{rng: rand.New(rand.NewSource(seed*1009 + int64(c))), perm: make([]int, queries), next: queries}
}

// pick returns the next query's index in the mix.
func (o *queryOrder) pick() int {
	if o.next == len(o.perm) {
		copy(o.perm, o.rng.Perm(len(o.perm)))
		o.next = 0
	}
	o.next++
	return o.perm[o.next-1]
}

// check judges one response to query number qi (an index into the mix).
type check func(client int, qi int, r *client.QueryResponse) bool

// load is what every window of a pass shares: where the system listens,
// the recorder (nil in the plain pass), the query mix and the run's shape.
type load struct {
	base    string
	rec     *recorder
	queries []string
	p       params
}

// readers runs the closed loop: each client sends its next query only when
// the previous one has answered, until the window ends. A request in flight
// at the deadline completes and counts. Each client's samples stay in the
// order it sent them. onRound, if set, is called by a client each time it
// starts another round of the mix.
func (l load) readers(clients int, window time.Duration, ok check, onRound func(round int)) []sample {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(l.base, l.rec)
			var mine []sample
			order := newQueryOrder(l.p.Seed, c, len(l.queries))
			for time.Since(t0) < window {
				if onRound != nil && len(mine)%len(l.queries) == 0 {
					onRound(len(mine) / len(l.queries))
				}
				qi := order.pick()
				start := time.Since(t0)
				var resp *client.QueryResponse
				var err error
				l.rec.request("client.query", func(ctx context.Context) {
					resp, err = cl.Query(ctx, client.QueryRequest{Query: l.queries[qi], Top: topK})
				})
				mine = append(mine, sample{start: start, end: time.Since(t0), ok: err == nil && ok(c, qi, resp)})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// writer sends ops on a fixed schedule, one every WriteEvery from t0, and
// times each acknowledgement from the moment the op was due: a stall costs
// every op queued behind it, as it would independent users. It keeps going
// until the list is drained so the final state is the twin's; an op not
// acknowledged by the window's end is late, and the caller counts it failed.
func (l load) writer(ops []op, t0 time.Time, afterAck func()) []sample {
	cl := newClient(l.base, l.rec)
	out := make([]sample, len(ops))
	for i, o := range ops {
		due := time.Duration(i) * l.p.WriteEvery
		time.Sleep(time.Until(t0.Add(due)))
		var err error
		l.rec.request("client.mutate", func(ctx context.Context) {
			switch o.Kind {
			case "feedback":
				_, err = cl.Feedback(ctx, o.Feedback)
			case "add":
				_, err = cl.AddSources(ctx, o.Sources)
			case "remove":
				_, err = cl.RemoveSource(ctx, o.Name)
			}
		})
		out[i] = sample{start: due, end: time.Since(t0), ok: err == nil}
		afterAck()
	}
	return out
}

// tally turns a window's samples into the request metrics.
type tally struct {
	attempted, failed int
	latencies         []float64 // ms, every request
	perSecond         []float64 // correct answers completed in each whole second
	qps               float64   // correct answers per second over the span the requests covered
}

func tallyOf(samples []sample, window time.Duration) tally {
	t := tally{attempted: len(samples)}
	secs := int(window / time.Second)
	t.perSecond = make([]float64, secs)
	var last time.Duration
	good := 0
	for _, s := range samples {
		t.latencies = append(t.latencies, ms(int64(s.end-s.start)))
		last = max(last, s.end)
		if !s.ok {
			t.failed++
			continue
		}
		good++
		if i := int(s.end / time.Second); i < secs {
			t.perSecond[i]++
		}
	}
	if span := max(last, window); span > 0 {
		t.qps = float64(good) / span.Seconds()
	}
	return t
}
