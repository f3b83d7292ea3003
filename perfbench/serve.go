package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/synth"
)

// conns bounds the load generator's concurrent connections: one per
// core of the 2-core box the benchmark was defined on.
const conns = 2

// p99Limit is the latency limit sustained_rps is held to: the
// server's own default -slo-p99.
const p99Limit = 500 * time.Millisecond

// The fixed rate ladder sustained_rps is read from: ladderBase ×
// ladderStep^k requests per second. 5 % steps are finer than the
// metric's bound.
const (
	ladderBase  = 5.0
	ladderStep  = 1.05
	probeLength = 2 * time.Second
)

// The untraced serving run. nominalRate is the assumed reviewer load
// (see METRICS.md). The run takes rounds nominal-rate blocks, each
// followed by two closed-loop capacity windows of windowCycles whole
// cycles of the mix; p99_ms is the median of the blocks' 99th
// percentiles and the capacity the median of the windows' completion
// rates. Blocks are whole cycles too, so every block and every window
// carries the same work. nominalShare is the share of the run's
// seconds the blocks take together; warm-up, capacity windows and the
// ladder probe take the rest.
const (
	nominalRate  = 100.0
	mixCycle     = 100
	windowCycles = 2
	rounds       = 6
	nominalShare = 0.7
	warmup       = 2 * time.Second
)

// quarterInfo is what the load generator needs to know about a stored
// quarter to build requests and check their answers.
type quarterInfo struct {
	label   string
	signals []sigInfo // by rank - 1
}

type sigInfo struct {
	drugs   []string
	reports []string
}

func infoOf(label string, a *core.Analysis) quarterInfo {
	q := quarterInfo{label: label, signals: make([]sigInfo, len(a.Signals))}
	for i, s := range a.Signals {
		q.signals[i] = sigInfo{drugs: cloneAll(s.Drugs), reports: cloneAll(s.ReportIDs)}
	}
	return q
}

// cloneAll copies strings so the info holds no memory of the analysis.
func cloneAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.Clone(s)
	}
	return out
}

// serving is a running serving workload: the mined quarters and the
// server over their snapshots.
type serving struct {
	quarters []quarterInfo
	storeDir string
	server   *serverProc
}

// setUpServing draws the workload's quarters of the given number of
// cases, mines them, writes their snapshots, and starts the server.
// Set-up time covers all of it; the server start is repeated three
// times and its median counted.
func setUpServing(cfg runConfig, labels []string, cases int, res *result) (*serving, error) {
	start := time.Now()
	dataDir := filepath.Join(cfg.workDir, "data")
	sv := &serving{storeDir: filepath.Join(cfg.workDir, "store"), quarters: make([]quarterInfo, len(labels))}
	if err := os.MkdirAll(sv.storeDir, 0o755); err != nil {
		return nil, err
	}
	pool, err := population()
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		if err := faers.SaveQuarter(dataDir, drawQuarter(pool, label, subSeed(cfg.workload, cfg.seed, i), cases)); err != nil {
			return nil, err
		}
	}

	// Quarters are mined one after another; mine_s is their median
	// wall time. The live heap an analysis holds (heap_mb) is measured
	// on the first.
	var mineS []float64
	for i, label := range labels {
		d, a, err := mineToSnapshot(dataDir, label, sv.storeDir)
		if err != nil {
			return nil, err
		}
		mineS = append(mineS, secs(d))
		sv.quarters[i] = infoOf(label, a)
		if i == 0 {
			with := liveHeapMB()
			runtime.KeepAlive(a)
			res.Metrics["heap_mb"] = with - liveHeapMB()
		}
	}
	res.Metrics["mine_s"] = median(mineS)
	res.Detail["mine_s_samples"] = mineS
	mined := time.Since(start)
	var snap []float64
	for _, label := range labels {
		st, err := os.Stat(snapshotPath(sv.storeDir, label))
		if err != nil {
			return nil, err
		}
		snap = append(snap, float64(st.Size())/mib)
	}
	res.Metrics["snapshot_mb"] = median(snap)
	os.RemoveAll(dataDir)

	var starts []float64
	for i := 0; i < 3; i++ {
		s, d, err := startServer(cfg.serverBin, sv.storeDir, filepath.Join(cfg.workDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		starts = append(starts, secs(d))
		if i < 2 {
			s.stop()
			continue
		}
		sv.server = s
	}
	res.Detail["server_start_s_samples"] = starts
	res.Metrics["setup_s"] = secs(mined) + median(starts)
	return sv, nil
}

// settle waits until the server's startup audit sweep has stopped
// loading quarters, so it does not run into the measurement.
func (sv *serving) settle(ctx context.Context) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	last, steady := -1.0, 0
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) && steady < 3; {
		time.Sleep(200 * time.Millisecond)
		m, err := scrape(ctx, hc, sv.server.base, "maras_store_cache_misses_total", "maras_store_cache_hits_total")
		if err != nil {
			return
		}
		v := m["maras_store_cache_misses_total"] + m["maras_store_cache_hits_total"]
		if v == last {
			steady++
		} else {
			steady = 0
		}
		last = v
	}
}

// roundRobin is smooth weighted round robin: each index comes up in
// proportion to its weight, as evenly spread as the weights allow.
// The mixes use it instead of random draws so every stretch of a run
// carries the same share of expensive requests, which keeps a short
// measurement window representative.
type roundRobin struct {
	w, cur []int
	total  int
}

func newRoundRobin(w ...int) *roundRobin {
	r := &roundRobin{w: w, cur: make([]int, len(w))}
	for _, x := range w {
		r.total += x
	}
	return r
}

func (r *roundRobin) next() int {
	best := 0
	for i, x := range r.w {
		r.cur[i] += x
		if r.cur[i] > r.cur[best] {
			best = i
		}
	}
	r.cur[best] -= r.total
	return best
}

// Body checks.

func checkSVG(body []byte) error {
	if !bytes.Contains(body, []byte("<svg")) {
		return errors.New("not an SVG document")
	}
	return nil
}

func checkSignalCount(n int) func([]byte) error {
	return func(body []byte) error {
		var arr []struct{}
		if err := json.Unmarshal(body, &arr); err != nil {
			return err
		}
		if len(arr) != n {
			return fmt.Errorf("%d signals, snapshot has %d", len(arr), n)
		}
		return nil
	}
}

func checkContains(what ...string) func([]byte) error {
	return func(body []byte) error {
		for _, w := range what {
			if !bytes.Contains(body, []byte(w)) {
				return fmt.Errorf("body does not mention %q", w)
			}
		}
		return nil
	}
}

func checkDrugs(drugs []string) func([]byte) error {
	esc := make([]string, len(drugs))
	for i, d := range drugs {
		esc[i] = template.HTMLEscapeString(d)
	}
	return checkContains(esc...)
}

func checkNetwork(body []byte) error {
	var g struct {
		Nodes []json.RawMessage `json:"nodes"`
		Links []json.RawMessage `json:"links"`
	}
	if err := json.Unmarshal(body, &g); err != nil {
		return err
	}
	if len(g.Nodes) == 0 {
		return errors.New("network has no nodes")
	}
	return nil
}

// requestMaker builds a seeded request sequence.
type requestMaker func(seed int64) func(i int) request

// signalRequests builds the per-signal requests of a quarter; ranks
// are drawn with a Zipf skew toward the top of the ranking, the way a
// reviewer pages through it.
type signalRequests struct {
	q     quarterInfo
	ranks *synth.ZipfSampler
}

func newSignalRequests(q quarterInfo) signalRequests {
	return signalRequests{q: q, ranks: synth.NewZipfSampler(len(q.signals), 1.0)}
}

func (s signalRequests) make(route string, rng *rand.Rand) request {
	i := s.ranks.Sample(rng)
	sig := s.q.signals[i]
	rank := i + 1
	switch route {
	case "signal":
		return request{route, fmt.Sprintf("/signal/%d", rank), checkDrugs(sig.drugs)}
	case "glyph":
		path := fmt.Sprintf("/glyph/%d", rank)
		if rng.Intn(4) == 0 {
			path += "?zoom=1"
		}
		return request{route, path, checkSVG}
	case "barchart":
		return request{route, fmt.Sprintf("/barchart/%d", rank), checkSVG}
	case "report":
		id := sig.reports[rng.Intn(len(sig.reports))]
		return request{route, fmt.Sprintf("/report/%s", id), checkContains("Report " + template.HTMLEscapeString(id))}
	}
	panic("unknown signal route " + route)
}

// browseMix is a drug-safety reviewer's session over one quarter: the
// index page, the full signal API, signal pages, glyphs, bar charts,
// raw-report drill-downs and the interaction network, in fixed shares
// per 100 requests. The seed picks the signals and reports requested.
func browseMix(q quarterInfo) requestMaker {
	names := []string{"index", "api_signals", "signal", "glyph", "barchart", "report", "network_json"}
	sr := newSignalRequests(q)
	n := len(q.signals)
	return func(seed int64) func(int) request {
		rng := rand.New(rand.NewSource(seed))
		mix := newRoundRobin(2, 1, 20, 35, 15, 22, 5)
		return func(int) request {
			switch route := names[mix.next()]; route {
			case "index":
				return request{route, "/", checkContains(fmt.Sprintf("%d ranked signals", n))}
			case "api_signals":
				return request{route, "/api/signals", checkSignalCount(n)}
			case "network_json":
				return request{route, "/network.json", checkNetwork}
			default:
				return sr.make(route, rng)
			}
		}
	}
}

func runBrowseHot(cfg runConfig) (*result, error) {
	res := newResult()
	sv, err := setUpServing(cfg, []string{"2014Q1"}, quarterCases, res)
	if err != nil {
		return nil, err
	}
	defer sv.server.stop()
	return res, sv.measure(cfg, res, browseMix(sv.quarters[0]))
}

// sequential numbers the requests of next across calls, so a request
// sequence continues from one block of a phase to the next.
func sequential(next func(int) request) func(int) request {
	i := -1
	return func(int) request { i++; return next(i) }
}

// phase summarises one open-loop phase's outcomes.
type phase struct {
	out       []outcome
	latencies []float64 // ms from due time; failures excluded
	failed    int
	errs      []string // the first few failures
	badBodies []string // the first few failed body checks
}

// summarize runs the phase's deferred body checks, then tallies its
// outcomes.
func summarize(out []outcome) phase {
	p := phase{out: out}
	for i := range out {
		if v := out[i].verify; v != nil {
			out[i].verify = nil
			if err := v(); err != nil {
				out[i].err, out[i].badBody = err, true
			}
		}
		o := out[i]
		if o.err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, o.route+": "+o.err.Error())
			}
			if o.badBody && len(p.badBodies) < 5 {
				p.badBodies = append(p.badBodies, o.err.Error())
			}
			continue
		}
		p.latencies = append(p.latencies, ms(o.latency()))
	}
	return p
}

// withFailures is the phase's latencies with every failed request
// counted at the client's timeout, so a failure misses every limit.
func (p phase) withFailures() []float64 {
	xs := append([]float64(nil), p.latencies...)
	for i := 0; i < p.failed; i++ {
		xs = append(xs, ms(requestTimeout))
	}
	return xs
}

// noteBadBodies records failed body checks as problems. Other
// failures stay counted in the phase, for phases that report them.
func (p phase) noteBadBodies(res *result, name string) {
	for _, b := range p.badBodies {
		res.problem("%s: %s", name, b)
	}
}

// noteFailures records any failure as a problem, for phases whose
// requests are not counted in the result's attempted and failed.
func (p phase) noteFailures(res *result, name string) {
	if p.failed > 0 {
		res.problem("%s: %d of %d requests failed: %s", name, p.failed, len(p.out), strings.Join(p.errs, "; "))
	}
}

// measure runs the serving workload's phases against the server:
// untraced, the nominal-rate latency phase and the sustained-rate
// ladder; traced, an untraced and a traced nominal phase, the HTTP
// floor, and the store's decode and cold-load times.
func (sv *serving) measure(cfg runConfig, res *result, makeReq requestMaker) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+2*time.Minute)
	defer cancel()
	sv.settle(ctx)
	seq := 0
	nextSeq := func() func(int) request { seq++; return makeReq(subSeed(cfg.workload, cfg.seed, 100+seq)) }
	c := newClient(sv.server.base, conns, false)
	defer c.close()

	warm := summarize(openLoop(ctx, time.Now(), nominalRate, warmup, conns, nextSeq(), c.do))
	warm.noteFailures(res, "warm-up")
	res.Detail["nominal_rps"] = nominalRate

	if !cfg.trace {
		// The nominal blocks and the capacity windows take turns, so both
		// sample the whole run: a stretch of seconds in which the shared
		// host runs slow falls into one or two of their blocks, not into
		// one of the two metrics as a whole.
		cycles := max(1, int(math.Round(nominalShare*cfg.seconds.Seconds()*nominalRate/rounds/mixCycle)))
		block := time.Duration(float64(cycles*mixCycle) / nominalRate * float64(time.Second))
		nomNext, capNext := sequential(nextSeq()), sequential(nextSeq())
		var all []outcome
		var blockP99, windows []float64
		for r := 0; r < rounds; r++ {
			p := summarize(openLoop(ctx, time.Now(), nominalRate, block, conns, nomNext, c.do))
			all = append(all, p.out...)
			blockP99 = append(blockP99, quantile(p.withFailures(), 0.99))
			for w := 0; w < 2; w++ {
				x, out := closedLoop(ctx, windowCycles*mixCycle, conns, capNext, c)
				summarize(out).noteFailures(res, "capacity")
				windows = append(windows, x)
			}
		}
		nom := summarize(all)
		nom.noteBadBodies(res, "nominal")
		res.Attempted, res.Failed = len(nom.out), nom.failed
		lat := nom.withFailures()
		res.Metrics["p50_ms"] = median(lat)
		res.Metrics["p99_ms"] = median(blockP99)
		pooled, q := tail(lat)
		res.Detail["block_p99_ms"] = blockP99
		res.Detail["pooled_tail_ms"] = pooled
		res.Detail["pooled_tail_quantile"] = q
		res.Detail["latency_samples"] = len(nom.out)
		res.Detail["error_ratio"] = float64(nom.failed) / float64(len(nom.out))
		res.Detail["closed_loop_rps"] = windows
		res.Metrics["sustained_rps"] = sustainedRate(ctx, c, median(windows), nextSeq, res)
	} else {
		span := cfg.seconds * 35 / 100
		plain := summarize(openLoop(ctx, time.Now(), nominalRate, span, conns, nextSeq(), c.do))
		plain.noteFailures(res, "untraced nominal")
		if err := sv.tracedPhase(ctx, res, nominalRate, span, nextSeq(), median(plain.withFailures())); err != nil {
			return err
		}
		last := sv.quarters[len(sv.quarters)-1].label
		if err := measureStoreReads(res, sv.storeDir, last); err != nil {
			return err
		}
	}
	if hwm, err := procStatusKB(sv.server.pid(), "VmHWM"); err == nil {
		res.Metrics["server_rss_mb"] = float64(hwm) / 1024
	}
	return nil
}

type probeResult struct {
	Rate      float64 `json:"rate"`
	Pass      bool    `json:"pass"`
	TailMS    float64 `json:"tail_ms"`
	Failed    int     `json:"failed"`
	Attempted int     `json:"attempted"`
}

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// ladderIndex is the highest ladder step at or below rate.
func ladderIndex(rate float64) int {
	if rate <= ladderBase {
		return 0
	}
	return int(math.Floor(math.Log(rate/ladderBase)/math.Log(ladderStep) + 1e-9))
}

// sustainedRate finds the highest ladder rate the server sustains.
// With its backlog growing, the open loop keeps both connections
// busy and is served at exactly the closed-loop completion rate, so
// the backlog stays bounded only at offered rates below that rate,
// capacity: the median of the run's closed-loop windows, which shrugs
// off a window slowed by something else on the host.
// The walk starts at the highest ladder step below it and steps down
// until a probe passes: no request fails and the tail latency from
// due time stays within p99Limit. If even the lowest step fails, the
// rate is 0 and the run records a problem.
func sustainedRate(ctx context.Context, c *client, capacity float64, nextSeq func() func(int) request, res *result) float64 {
	var probes []probeResult
	sustained := 0.0
	for k := ladderIndex(capacity); k >= 0; k-- {
		pctx, cancel := context.WithTimeout(ctx, probeLength+5*time.Second)
		p := summarize(openLoop(pctx, time.Now(), ladderRate(k), probeLength, conns, nextSeq(), c.do))
		cancel()
		p.noteBadBodies(res, "ladder")
		t, _ := tail(p.withFailures())
		pass := p.failed == 0 && t <= ms(p99Limit)
		probes = append(probes, probeResult{ladderRate(k), pass, t, p.failed, len(p.out)})
		if pass {
			sustained = ladderRate(k)
			break
		}
	}
	res.Detail["ladder_probes"] = probes
	if sustained == 0 {
		res.problem("no ladder probe passed, down to %.1f req/s", ladderBase)
	}
	return sustained
}

// tracedPhase runs the nominal rate with client-side spans around
// every request and derives the per-route and server-side metrics.
func (sv *serving) tracedPhase(ctx context.Context, res *result, rate float64, span time.Duration, next func(int) request, untracedP50 float64) error {
	rec := &recorder{}
	tc := newClient(sv.server.base, conns, true)
	defer tc.close()
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	const shed = "maras_shed_total"
	before, err := scrape(ctx, hc, sv.server.base, shed)
	if err != nil {
		return err
	}
	cpuBefore, err := procCPU(sv.server.pid())
	if err != nil {
		return err
	}
	var reqID int64
	var mu sync.Mutex
	traced := func(ctx context.Context, j job) outcome {
		o := tc.do(ctx, j)
		mu.Lock()
		reqID++
		id := reqID
		mu.Unlock()
		root := rec.reserve()
		name := "http." + o.route
		rec.add(name+".queue", root, id, o.due, o.sent)
		if !o.first.IsZero() {
			rec.add(name+".ttfb", root, id, o.sent, o.first)
			rec.add(name+".body", root, id, o.first, o.end)
		}
		rec.finish(root, name, 0, id, o.due, o.end)
		return o
	}
	p := summarize(openLoop(ctx, time.Now(), rate, span, conns, next, traced))
	p.noteBadBodies(res, "traced nominal")
	cpuAfter, err := procCPU(sv.server.pid())
	if err != nil {
		return err
	}
	after, err := scrape(ctx, hc, sv.server.base, shed)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = len(p.out), p.failed

	// The floor under every route: /healthz, one request at a time.
	var floor []float64
	for i := 0; i < 200; i++ {
		o := tc.do(ctx, job{req: request{route: "healthz", path: "/healthz"}, due: time.Now(), pushed: time.Now()})
		if o.err != nil {
			return o.err
		}
		floor = append(floor, ms(o.end.Sub(o.sent)))
		rec.add("http.healthz", 0, 0, o.sent, o.end)
	}
	res.Metrics["http.floor_ms"] = median(floor)

	spans := rec.all()
	res.Spans = spans
	self := selfByName(spans)
	total := map[string][]float64{}
	service := map[string][]float64{}
	var lag []float64
	bytesBy := map[string][]float64{}
	for _, o := range p.out {
		if o.err != nil {
			continue
		}
		total[o.route] = append(total[o.route], ms(o.latency()))
		service[o.route] = append(service[o.route], ms(o.end.Sub(o.sent)))
		bytesBy[o.route] = append(bytesBy[o.route], float64(o.bytes))
		lag = append(lag, ms(o.pushed.Sub(o.due)))
	}
	samples := map[string]int{}
	for route, lat := range total {
		pre := "route." + route + "."
		res.Metrics[pre+"p50_ms"] = median(lat)
		v, _ := tail(lat)
		res.Metrics[pre+"p99_ms"] = v
		ttfb, body := median(self["http."+route+".ttfb"]), median(self["http."+route+".body"])
		res.Metrics[pre+"ttfb_ms"] = ttfb
		res.Metrics[pre+"body_ms"] = body
		res.Metrics[pre+"bytes"] = mean(bytesBy[route])
		res.Metrics[pre+"split_ratio"] = (ttfb + body) / median(service[route])
		samples[route] = len(lat)
	}
	res.Detail["route_samples"] = samples
	lagP99, _ := tail(lag)
	res.Metrics["gen.lag_p99_ms"] = lagP99
	done := len(p.out) - p.failed
	if done > 0 {
		res.Metrics["server.cpu_ms_per_req"] = ms(cpuAfter-cpuBefore) / float64(done)
	}
	res.Metrics["resilience.shed_ratio"] = (after[shed] - before[shed]) / float64(len(p.out))
	res.Metrics["trace.overhead_ratio"] = median(p.withFailures()) / untracedP50
	return nil
}
