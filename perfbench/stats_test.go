package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 25, 100, 250, 999, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, q := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: quantile %.4f leaves %d samples beyond, want exactly 10", n, q, beyond)
		}
	}
	// With plenty of samples the percentile stops at p99.
	if q := tailQuantile(5000); q != 0.99 {
		t.Errorf("n=5000: quantile %v, want 0.99", q)
	}
	// Too few samples for any percentile above the median.
	if v, q := tail([]float64{4, 1, 3, 2}); q != 0.5 || v != 2.5 {
		t.Errorf("n=4: tail %v at quantile %v, want the median 2.5", v, q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// A request that stalls holds the only connection; the requests due
// behind it are timed from their due time, so they carry the wait.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	next := func(i int) request { return request{route: "r", path: "/" + string(rune('a'+i))} }
	do := func(_ context.Context, j job) outcome {
		o := outcome{route: j.req.route, due: j.due, pushed: j.pushed, sent: time.Now()}
		if j.req.path == "/a" {
			time.Sleep(stall)
		}
		o.end = time.Now()
		return o
	}
	start := time.Now().Add(5 * time.Millisecond)
	out := openLoop(context.Background(), start, 100, 100*time.Millisecond, 1, next, do)
	if len(out) != 10 {
		t.Fatalf("%d outcomes, want 10", len(out))
	}
	for _, o := range out[1:] {
		// Request i is due at i*10ms but cannot start before the
		// stall ends at ~80ms.
		want := stall - o.due.Sub(start) - 5*time.Millisecond
		if want > 0 && o.latency() < want {
			t.Errorf("request due at +%v: latency %v, want at least %v", o.due.Sub(start), o.latency(), want)
		}
		if o.sent.Before(out[0].end) {
			t.Errorf("request due at +%v sent before the stalled one finished", o.due.Sub(start))
		}
	}
	// The generator itself kept to the schedule.
	for _, o := range out {
		if lag := o.pushed.Sub(o.due); lag > 20*time.Millisecond {
			t.Errorf("generator pushed %v late", lag)
		}
	}
}

func TestLadderIndex(t *testing.T) {
	for k := 0; k < 120; k++ {
		r := ladderRate(k)
		if got := ladderIndex(r); got != k {
			t.Errorf("ladderIndex(ladderRate(%d)) = %d", k, got)
		}
		if got := ladderIndex(r * 1.04); got != k {
			t.Errorf("ladderIndex(%.2f) = %d, want %d", r*1.04, got, k)
		}
	}
}

func TestFingerprintCanonical(t *testing.T) {
	base := []rankedSignal{
		{Rank: 1, Drugs: []string{"A", "B"}, Reactions: []string{"x", "y"}, Support: 9, Score: 0.5},
		{Rank: 2, Drugs: []string{"C", "D"}, Reactions: []string{"z"}, Support: 12, Score: 0.25},
	}
	fp := fingerprint(base)
	same := []rankedSignal{
		{Rank: 2, Drugs: []string{"D", "C"}, Reactions: []string{"z"}, Support: 12, Score: 0.25 + 1e-14},
		{Rank: 1, Drugs: []string{"B", "A"}, Reactions: []string{"y", "x"}, Support: 9, Score: 0.5},
	}
	if got := fingerprint(same); got != fp {
		t.Errorf("reordered sets, signal order and sub-1e-12 score noise changed the fingerprint")
	}
	for name, mutate := range map[string]func([]rankedSignal){
		"support":  func(s []rankedSignal) { s[0].Support++ },
		"score":    func(s []rankedSignal) { s[1].Score += 1e-9 },
		"rank":     func(s []rankedSignal) { s[0].Rank, s[1].Rank = 2, 1 },
		"drug":     func(s []rankedSignal) { s[0].Drugs = []string{"A", "E"} },
		"reaction": func(s []rankedSignal) { s[1].Reactions = nil },
	} {
		changed := append([]rankedSignal(nil), base...)
		mutate(changed)
		if fingerprint(changed) == fp {
			t.Errorf("changing the %s kept the fingerprint", name)
		}
	}
	// The fingerprint must not reorder the caller's slice.
	if base[0].Rank != 1 || same[0].Rank != 2 {
		t.Errorf("fingerprint reordered its input")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: at(15), End: at(35)},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100]: 60ms of the parent's 100.
	if got := self[1]; got != 40*time.Millisecond {
		t.Errorf("parent self time %v, want 40ms", got)
	}
	if got := self[2]; got != 10*time.Millisecond {
		t.Errorf("child self time %v, want 10ms", got)
	}
	if got := self[4]; got != 30*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}

func TestScrapeSumsLabelledCounters(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# HELP maras_shed_total x\n# TYPE maras_shed_total counter\n" +
			"maras_shed_total{reason=\"queue_full\"} 2\nmaras_shed_total{reason=\"wait_timeout\"} 3\n" +
			"maras_store_cache_hits_total 41\nmaras_store_cache_hits_total_other 7\n"))
	}))
	defer srv.Close()
	m, err := scrape(context.Background(), srv.Client(), srv.URL, "maras_shed_total", "maras_store_cache_hits_total")
	if err != nil {
		t.Fatal(err)
	}
	if m["maras_shed_total"] != 5 || m["maras_store_cache_hits_total"] != 41 {
		t.Errorf("scraped %v", m)
	}
}

// BENCHMARK.json at the repository root and this program must name
// the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Body checks run when the phase is summarized, not when the response
// arrives; equal bodies of one path share one check, and a failing
// body fails every request that got it.
func TestBodyChecksRunAfterThePhase(t *testing.T) {
	runs := 0
	r := request{route: "r", path: "/p", check: func(b []byte) error {
		runs++
		return checkContains("ok")(b)
	}}
	b := newBodyChecks()
	out := []outcome{
		{route: "r", verify: b.later(r, []byte("ok 1"), false)},
		{route: "r", verify: b.later(r, []byte("ok 1"), false)},
		{route: "r", verify: b.later(r, []byte("bad"), false)},
		{route: "r", verify: b.later(r, []byte("bad"), false)},
	}
	if runs != 0 {
		t.Fatalf("%d checks ran before the phase ended", runs)
	}
	p := summarize(out)
	if runs != 2 {
		t.Errorf("%d checks ran for 2 distinct bodies", runs)
	}
	if p.failed != 2 || !out[2].badBody || !out[3].badBody || out[0].err != nil {
		t.Errorf("failed %d, outcomes %+v", p.failed, out)
	}
}
