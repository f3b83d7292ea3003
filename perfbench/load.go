package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// request is one GET the load generator sends, with the check its
// body must pass.
type request struct {
	route string
	path  string
	check func(body []byte) error
}

// job is a request with the time it was due and the time the
// generator actually handed it to a connection's queue.
type job struct {
	req    request
	due    time.Time
	pushed time.Time
}

// outcome is what happened to one request. Latency is measured from
// the due time, so time spent waiting behind a stalled request counts.
type outcome struct {
	route                         string
	due, pushed, sent, first, end time.Time
	bytes                         int
	err                           error
	badBody                       bool // the body failed its check
	// verify runs the body's check; summarize calls it after the phase.
	verify func() error
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.due) }

// openLoop sends requests at a fixed rate from start for dur: request
// i is due at start + i/rate whatever happened to earlier ones, and
// at most conns are in flight. When every connection is busy, due
// requests queue in the generator, and that wait is part of their
// latency. next builds request i; do sends one.
func openLoop(ctx context.Context, start time.Time, rate float64, dur time.Duration, conns int,
	next func(i int) request, do func(context.Context, job) outcome) []outcome {
	n := int(math.Round(dur.Seconds() * rate))
	if n < 1 {
		n = 1
	}
	// Room for every request, so the generator never waits on a busy
	// connection: a request's wait for one is part of its latency.
	queue := make(chan job, n)
	results := make([][]outcome, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				if ctx.Err() != nil {
					results[w] = append(results[w], outcome{route: j.req.route, due: j.due, pushed: j.pushed,
						sent: time.Now(), end: time.Now(), err: ctx.Err()})
					continue
				}
				results[w] = append(results[w], do(ctx, j))
			}
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{req: next(i), due: due, pushed: time.Now()}
	}
	close(queue)
	wg.Wait()
	var out []outcome
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// requestTimeout bounds one benchmark request.
const requestTimeout = 30 * time.Second

// client sends benchmark requests over loopback, asking for gzip
// like a browser does and decoding it itself, so the bytes counted
// are the bytes on the wire.
type client struct {
	hc     *http.Client
	base   string
	trace  bool // record first-byte times through httptrace
	checks *bodyChecks
}

// bodyChecks defers body checks until a phase has ended, so the load
// generator's gunzip and JSON decoding (tens of ms for the index page
// and /api/signals) do not take CPU from the server while it is timed
// on a host of few cores. Equal bodies of one path (same length and
// hash) share one check, and each body is held only until it has run.
type bodyChecks struct {
	mu   sync.Mutex
	seed maphash.Seed
	seen map[bodyKey]*bodyCheck
}

type bodyKey struct {
	path string
	n    int
	sum  uint64
}

type bodyCheck struct {
	once sync.Once
	run  func() error
	err  error
}

func (c *bodyCheck) result() error {
	c.once.Do(func() { c.err, c.run = c.run(), nil })
	return c.err
}

func newBodyChecks() *bodyChecks {
	return &bodyChecks{seed: maphash.MakeSeed(), seen: map[bodyKey]*bodyCheck{}}
}

// later returns the check to run on body after the phase, or nil if
// the request has nothing to check.
func (b *bodyChecks) later(r request, body []byte, gzipped bool) func() error {
	if r.check == nil && !gzipped {
		return nil
	}
	k := bodyKey{r.path, len(body), maphash.Bytes(b.seed, body)}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.seen[k]
	if c == nil {
		c = &bodyCheck{run: func() error { return checkBody(r, body, gzipped) }}
		b.seen[k] = c
	}
	return c.result
}

func checkBody(r request, body []byte, gzipped bool) error {
	if gzipped {
		var err error
		if body, err = gunzip(body); err != nil {
			return fmt.Errorf("%s: gzip: %w", r.path, err)
		}
	}
	if r.check != nil {
		if err := r.check(body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
	}
	return nil
}

func newClient(base string, conns int, trace bool) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base, trace: trace, checks: newBodyChecks()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, j job) outcome {
	o := outcome{route: j.req.route, due: j.due, pushed: j.pushed}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+j.req.path, nil)
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if c.trace {
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { o.first = time.Now() },
		}))
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.end = time.Now()
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	o.bytes = len(body)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s: %s", j.req.path, resp.Status)
	default:
		o.verify = c.checks.later(j.req, body, resp.Header.Get("Content-Encoding") == "gzip")
	}
	return o
}

func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// closedLoop keeps conns requests in flight until n have been sent
// and returns the completion rate, a first estimate of capacity.
func closedLoop(ctx context.Context, n, conns int, next func(i int) request, c *client) (float64, []outcome) {
	var (
		mu    sync.Mutex
		i     int
		out   []outcome
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if i == n {
					mu.Unlock()
					return
				}
				r := next(i)
				i++
				mu.Unlock()
				o := c.do(ctx, job{req: r, due: time.Now(), pushed: time.Now()})
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(len(out)) / time.Since(start).Seconds(), out
}
