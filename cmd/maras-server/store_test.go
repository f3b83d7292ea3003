package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/store"
)

// tempStoreDir mines n tiny quarters (2014Q1..) and persists them as
// snapshots, returning the store directory. Pair support ramps with
// the quarter index so timelines are non-trivial.
func tempStoreDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for qi := 0; qi < n; qi++ {
		var reports []faers.Report
		id := 0
		add := func(drugs, reacs []string) {
			id++
			reports = append(reports, faers.Report{
				PrimaryID: fmt.Sprintf("%d", 1000+id), CaseID: fmt.Sprintf("c%d", id),
				ReportCode: "EXP", Drugs: drugs, Reactions: reacs,
			})
		}
		for i := 0; i < 8+4*qi; i++ {
			add([]string{"ASPIRIN", "WARFARIN"}, []string{"Haemorrhage"})
		}
		for i := 0; i < 20; i++ {
			add([]string{"ASPIRIN"}, []string{"Nausea"})
			add([]string{"WARFARIN"}, []string{"Dizziness"})
		}
		opts := core.NewOptions()
		opts.MinSupport = 3
		a, err := core.Run(reports, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("2014Q%d", qi+1)
		if err := store.WriteFile(filepath.Join(dir, label+store.Ext), label, a); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// storeHandler builds the store-mode mux the way main does with
// -store, returning the handler plus the tracer and metric registry
// for assertions. Tracing is off; readiness is already signaled.
func storeHandler(t *testing.T, dir string) (http.Handler, *storeServer, *obs.Tracer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	mw := obs.NewHTTPMetrics(reg, nil)
	tracer := obs.NewTracer(nil)
	auditor := &audit.Auditor{Log: audit.NewLog(audit.LogOptions{Metrics: reg}), Metrics: reg}
	ss, err := newStoreServer(dir, nil, tracer, obs.NewStoreMetrics(reg), auditor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := &obs.Readiness{}
	ready.SetReady()
	return ss.routes(wiring{reg: reg, mw: mw, ready: ready}), ss, tracer, reg
}

// storeHandlerTraced is storeHandler with span tracing into a journal.
func storeHandlerTraced(t *testing.T, dir string) (http.Handler, *obs.Journal) {
	t.Helper()
	reg := obs.NewRegistry()
	mw := obs.NewHTTPMetrics(reg, nil)
	journal := obs.NewJournal(16, time.Hour)
	mw.EnableTracing(journal)
	ss, err := newStoreServer(dir, nil, nil, obs.NewStoreMetrics(reg), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := &obs.Readiness{}
	ready.SetReady()
	return ss.routes(wiring{reg: reg, mw: mw, journal: journal, ready: ready}), journal
}

func TestStoreModeQuartersEndpoint(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/api/quarters")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Default  string   `json:"default"`
		Quarters []string `json:"quarters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Default != "2014Q3" || len(out.Quarters) != 3 {
		t.Errorf("quarters payload = %+v", out)
	}
}

// TestStoreModeWarmSignalsZeroMining is the acceptance check: serving
// /api/signals from the store must never invoke the miner — the only
// pipeline stage a serving process records is snapshot_load.
func TestStoreModeWarmSignalsZeroMining(t *testing.T) {
	h, _, tracer, _ := storeHandler(t, tempStoreDir(t, 2))
	for i := 0; i < 3; i++ {
		rec := getMux(t, h, "/api/signals")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
		var out []struct {
			Rank  int      `json:"rank"`
			Drugs []string `json:"drugs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 || out[0].Rank != 1 {
			t.Fatalf("request %d: payload %+v", i, out)
		}
	}
	recs := tracer.Records()
	loads := 0
	for _, r := range recs {
		if r.Name == core.StageMine {
			t.Fatal("store mode ran the miner")
		}
		if r.Name == store.StageSnapshotLoad {
			loads++
		}
	}
	// One cold load for the default quarter; the two warm requests add
	// no stages at all.
	if loads != 1 {
		t.Errorf("snapshot_load stages = %d, want 1 (warm requests must not re-read)", loads)
	}
}

func TestStoreModeDefaultQuarterUI(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 2))
	rec := getMux(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	// The default quarter is the latest on disk.
	for _, want := range []string{"MARAS", "2014Q2", "/signal/1"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Drill-down routes work against the snapshot (no txdb in memory).
	if rec := getMux(t, h, "/signal/1"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "ASPIRIN") {
		t.Errorf("/signal/1: status %d", rec.Code)
	}
	if rec := getMux(t, h, "/glyph/1"); rec.Code != http.StatusOK ||
		!strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Errorf("/glyph/1: status %d", rec.Code)
	}
}

// TestStoreModeDefaultQuarterRouteLabels: each default-quarter page
// is counted under its own route label, while a bare "/signal" still
// reaches the quarter's mux, which redirects it with the serving
// origin, and is counted under "/".
func TestStoreModeDefaultQuarterRouteLabels(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 1))
	getMux(t, h, "/")
	getMux(t, h, "/signal/1")
	getMux(t, h, "/glyph/1")
	getMux(t, h, "/api/signals")
	rec := getMux(t, h, "/signal")
	if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/signal/" {
		t.Fatalf("/signal: status %d, Location %q", rec.Code, rec.Header().Get("Location"))
	}
	if got := rec.Header().Get(store.OriginHeader); got != string(store.OriginLocal) {
		t.Errorf("/signal redirect origin = %q, want %q", got, store.OriginLocal)
	}
	body := getMux(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`http_requests_total{route="/",code="2xx"} 1`,
		`http_requests_total{route="/",code="3xx"} 1`,
		`http_requests_total{route="/signal/",code="2xx"} 1`,
		`http_requests_total{route="/glyph/",code="2xx"} 1`,
		`http_requests_total{route="/api/signals",code="2xx"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStoreModeQuarterScopedRoutes(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/q/2014Q1/api/signals")
	if rec.Code != http.StatusOK {
		t.Fatalf("/q/2014Q1/api/signals status = %d", rec.Code)
	}
	var q1 []struct {
		Support int `json:"support"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q1); err != nil {
		t.Fatal(err)
	}
	rec3 := getMux(t, h, "/q/2014Q3/api/signals")
	var q3 []struct {
		Support int `json:"support"`
	}
	if err := json.Unmarshal(rec3.Body.Bytes(), &q3); err != nil {
		t.Fatal(err)
	}
	// The fixture ramps pair support, so the quarters must differ.
	if len(q1) == 0 || len(q3) == 0 || q1[0].Support >= q3[0].Support {
		t.Errorf("quarter scoping broken: q1 %+v vs q3 %+v", q1, q3)
	}
	if rec := getMux(t, h, "/q/2014Q1/signal/1"); rec.Code != http.StatusOK {
		t.Errorf("/q/2014Q1/signal/1 status = %d", rec.Code)
	}
	if rec := getMux(t, h, "/q/2019Q9/api/signals"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown quarter status = %d, want 404", rec.Code)
	}
}

func TestStoreModeTimeline(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 3))
	// Lower-case, reversed order: the key is canonicalized server-side.
	rec := getMux(t, h, "/api/timeline/warfarin+aspirin")
	if rec.Code != http.StatusOK {
		t.Fatalf("timeline status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Key    string `json:"key"`
		Class  string `json:"class"`
		Points []struct {
			Quarter string `json:"quarter"`
			Rank    int    `json:"rank"`
			Support int    `json:"support"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Key != "ASPIRIN+WARFARIN" || len(out.Points) != 3 {
		t.Fatalf("timeline payload = %+v", out)
	}
	if out.Class != "persistent" {
		t.Errorf("class = %q, want persistent", out.Class)
	}
	for i := 1; i < len(out.Points); i++ {
		if out.Points[i].Support <= out.Points[i-1].Support {
			t.Errorf("support not ramping: %+v", out.Points)
		}
	}
	if rec := getMux(t, h, "/api/timeline/NOPE+NADA"); rec.Code != http.StatusNotFound {
		t.Errorf("absent key status = %d, want 404", rec.Code)
	}
	if rec := getMux(t, h, "/api/timeline/"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty key status = %d, want 400", rec.Code)
	}
}

func TestStoreModeMetricsExposeStoreSeries(t *testing.T) {
	h, ss, _, _ := storeHandler(t, tempStoreDir(t, 2))
	getMux(t, h, "/api/signals") // cold load
	getMux(t, h, "/api/signals") // served from the cached handler
	// A direct warm registry load (what a second process route, e.g. the
	// timeline, performs) must register as a cache hit.
	if _, err := ss.reg.Load(ss.reg.Latest()); err != nil {
		t.Fatal(err)
	}
	rec := getMux(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"maras_store_snapshot_load_seconds",
		"maras_store_open_quarters 1",
		"maras_store_cache_misses_total 1",
		"maras_store_cache_hits_total 1",
		"maras_store_snapshot_bytes_read_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStoreModeHealthz(t *testing.T) {
	h, ss, _, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var body struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		Quarters int    `json:"quarters"`
		Default  string `json:"default"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Mode != "store" || body.Quarters != 3 ||
		body.Default != ss.reg.Latest() {
		t.Errorf("healthz = %+v", body)
	}
}

func TestStoreModeEmptyStore(t *testing.T) {
	h, _, _, _ := storeHandler(t, t.TempDir())
	if rec := getMux(t, h, "/"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("empty store index status = %d, want 503", rec.Code)
	}
	rec := getMux(t, h, "/api/quarters")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"quarters":[]`+"") {
		// json.Marshal of a nil slice yields null; accept either form.
		if !strings.Contains(rec.Body.String(), `"quarters":null`) {
			t.Errorf("empty store quarters = %d %s", rec.Code, rec.Body.String())
		}
	}
}

// TestStoreModeTraceAcceptance is the PR's acceptance scenario: a
// store-backed request to /q/{label}/... yields a journal trace whose
// root HTTP span has registry child spans, with a cache hit vs a cold
// decode distinguishable by span attributes.
func TestStoreModeTraceAcceptance(t *testing.T) {
	h, journal := storeHandlerTraced(t, tempStoreDir(t, 2))

	// Cold: /q/2014Q1 loads + decodes the snapshot.
	if rec := getMux(t, h, "/q/2014Q1/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("/q/2014Q1/api/signals = %d", rec.Code)
	}
	// Warm in the registry but not the handler cache: the timeline
	// walks every quarter through LoadContext — 2014Q1 is an LRU hit,
	// 2014Q2 a miss with a decode.
	if rec := getMux(t, h, "/api/timeline/warfarin+aspirin"); rec.Code != http.StatusOK {
		t.Fatalf("/api/timeline = %d: %s", rec.Code, rec.Body.String())
	}

	recent := journal.Recent(0) // newest first: timeline, then /q/
	if len(recent) != 2 {
		t.Fatalf("journal traces = %d, want 2", len(recent))
	}

	cold := recent[1]
	if cold.Name != "GET /q/" {
		t.Fatalf("cold trace root = %q", cold.Name)
	}
	spansBy := func(tr obs.TraceRecord, name string) []obs.SpanRecord {
		var out []obs.SpanRecord
		for _, s := range tr.Spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	parentOf := func(tr obs.TraceRecord, id int) (obs.SpanRecord, bool) {
		for _, s := range tr.Spans {
			if s.ID == id {
				return s, true
			}
		}
		return obs.SpanRecord{}, false
	}

	loads := spansBy(cold, store.SpanLoad)
	if len(loads) != 1 || loads[0].Attrs["cache"] != "lru_miss" || loads[0].Attrs["quarter"] != "2014Q1" {
		t.Fatalf("cold store_load spans = %+v", loads)
	}
	decodes := spansBy(cold, store.SpanDecode)
	if len(decodes) != 1 || decodes[0].Parent != loads[0].ID {
		t.Fatalf("cold snapshot_decode spans = %+v", decodes)
	}
	// The load hangs off the request's span tree, rooted at the HTTP span.
	qm, ok := parentOf(cold, loads[0].Parent)
	if !ok || qm.Name != "quarter_mux" || qm.Attrs["handler_cache"] != "miss" {
		t.Fatalf("store_load parent = %+v", qm)
	}
	if root, ok := parentOf(cold, qm.Parent); !ok || root.Parent != -1 {
		t.Fatalf("quarter_mux not under the HTTP root: %+v", root)
	}

	warm := recent[0]
	if warm.Name != "GET /api/timeline/" {
		t.Fatalf("timeline trace root = %q", warm.Name)
	}
	byQuarter := map[string]obs.SpanRecord{}
	for _, s := range spansBy(warm, store.SpanLoad) {
		byQuarter[s.Attrs["quarter"]] = s
	}
	if byQuarter["2014Q1"].Attrs["cache"] != "lru_hit" {
		t.Errorf("warm quarter load = %+v, want lru_hit", byQuarter["2014Q1"].Attrs)
	}
	if byQuarter["2014Q2"].Attrs["cache"] != "lru_miss" {
		t.Errorf("cold quarter load = %+v, want lru_miss", byQuarter["2014Q2"].Attrs)
	}
	if len(spansBy(warm, store.SpanDecode)) != 1 {
		t.Errorf("timeline decodes = %d, want 1 (only 2014Q2)", len(spansBy(warm, store.SpanDecode)))
	}

	// The handler-cache hit path: repeat the /q/ request; the registry
	// is bypassed entirely.
	getMux(t, h, "/q/2014Q1/api/signals")
	rerun := journal.Recent(1)[0]
	if n := len(spansBy(rerun, store.SpanLoad)); n != 0 {
		t.Errorf("handler-cached request touched the registry %d times", n)
	}
	if qm := spansBy(rerun, "quarter_mux"); len(qm) != 1 || qm[0].Attrs["handler_cache"] != "hit" {
		t.Errorf("handler cache span = %+v", qm)
	}

	// All of it visible at /debug/traces.
	body := getMux(t, h, "/debug/traces").Body.String()
	for _, want := range []string{"GET /q/", "store_load", "cache=lru_miss", "cache=lru_hit", "snapshot_decode"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces missing %q", want)
		}
	}
}

// TestStoreModeReadyz: store mode mounts /readyz too.
func TestStoreModeReadyz(t *testing.T) {
	h, _, _, _ := storeHandler(t, tempStoreDir(t, 1))
	rec := getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (storeHandler marks ready)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"mode":"store"`) {
		t.Errorf("readyz detail missing store mode: %s", rec.Body.String())
	}
}
