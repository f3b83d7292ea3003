package main

// Operational-surface drift guard and the wide-event incident-view
// acceptance path. The drift guard pins the full set of operational
// endpoints in BOTH invocations — with -store and mined into a
// temporary store without it: a refactor that forgets to mount one
// fails here, not in production.

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/obs/history"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/slo"
)

// newFullStack wires every subsystem a server can run the way main
// does (bulkhead off), returning the wiring plus the audit log the
// SLO engine and the watch evaluator record into.
func newFullStack(t *testing.T) (wiring, *audit.Log) {
	t.Helper()
	reg := obs.NewRegistry()
	mw := obs.NewHTTPMetrics(reg, nil)
	journal := obs.NewJournal(32, time.Hour)
	mw.EnableTracing(journal)
	events := wide.NewRing(1024, 1, reg)
	mw.OnComplete(events.EmitRequest)
	alog := audit.NewLog(audit.LogOptions{Metrics: reg})
	ready := &obs.Readiness{}
	ready.SetReady()
	hist := history.New(reg, history.Options{Interval: time.Second, Retention: time.Minute})
	eng := slo.NewEngine(hist, slo.Config{
		Objectives: slo.DefaultObjectives(0.995, 500*time.Millisecond, 0.05, 0.10),
		Log:        alog, Ready: ready, Metrics: reg,
	})
	pstore, err := prof.OpenStore(t.TempDir(), prof.StoreOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	captor := prof.NewCaptor(prof.CaptorOptions{Store: pstore})
	auditor := &audit.Auditor{Log: alog, Metrics: reg}
	ws, err := newWatchStack(watchConfig{userCap: 4, feedCap: 8, budget: time.Second},
		knowledge.Builtin(), reg, auditor, nil, events)
	if err != nil {
		t.Fatal(err)
	}
	return wiring{reg: reg, mw: mw, journal: journal, ready: ready,
		slos: &sloStack{hist: hist, eng: eng}, ws: ws, captor: captor, events: events}, alog
}

// mineHandler builds the full-stack mux the way main does without
// -store: the fixture quarter mined into a temporary store and served
// in store mode.
func mineHandler(t *testing.T, w wiring, alog *audit.Log) http.Handler {
	t.Helper()
	h, _ := mineModeHandler(t, testServer(t), &audit.Auditor{Log: alog, Metrics: w.reg}, w)
	return h
}

// storeModeHandler builds the -store mux with the full stack.
func storeModeHandler(t *testing.T, w wiring, alog *audit.Log) http.Handler {
	t.Helper()
	auditor := &audit.Auditor{Log: alog, Metrics: w.reg}
	ss, err := newStoreServer(tempStoreDir(t, 1), nil, nil, obs.NewStoreMetrics(w.reg), auditor, w.ws, w.events)
	if err != nil {
		t.Fatal(err)
	}
	return ss.routes(w)
}

// TestOperationalSurfaceBothModes is the drift guard: every
// operational endpoint must be mounted and answering its expected
// status with -store ("store") and without it ("mine").
func TestOperationalSurfaceBothModes(t *testing.T) {
	endpoints := []struct {
		url  string
		want int
	}{
		{"/metrics", http.StatusOK},
		{"/healthz", http.StatusOK},
		{"/readyz", http.StatusOK},
		{"/debug/traces", http.StatusOK},
		{"/debug/audit", http.StatusOK},
		{"/debug/history", http.StatusOK},
		{"/debug/vars", http.StatusOK},
		{"/debug/profiles", http.StatusOK},
		{"/debug/events", http.StatusOK},
		{"/debug/diag/", http.StatusBadRequest}, // mounted; an ID is required
		{"/debug/pprof/", http.StatusOK},
		{"/api/history/", http.StatusOK},
		{"/api/slo", http.StatusOK},
		{"/api/watch/stats", http.StatusOK},
	}
	modes := map[string]func(*testing.T, wiring, *audit.Log) http.Handler{
		"mine":  mineHandler,
		"store": storeModeHandler,
	}
	for mode, build := range modes {
		t.Run(mode, func(t *testing.T) {
			w, alog := newFullStack(t)
			h := build(t, w, alog)
			for _, ep := range endpoints {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep.url, nil))
				if rec.Code != ep.want {
					t.Errorf("%s %s = %d, want %d", mode, ep.url, rec.Code, ep.want)
				}
			}
		})
	}
}

// TestDiagEndToEnd is the acceptance path: an induced slow request is
// retrievable end-to-end at /debug/diag/{request-id} — its wide event,
// its full trace, in-window audit events — and its trace ID appears as
// an exemplar in the OpenMetrics /metrics rendering.
func TestDiagEndToEnd(t *testing.T) {
	w, alog := newFullStack(t)
	h := storeModeHandler(t, w, alog)
	const reqID = "incident0badc0de"

	// Induce the request (slow threshold is irrelevant to retrieval;
	// the cold store load underneath makes it a real multi-span trace).
	req := httptest.NewRequest(http.MethodGet, "/api/signals", nil)
	req.Header.Set(obs.RequestIDHeader, reqID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("induced request = %d", rec.Code)
	}
	// An audit event lands inside the correlation window.
	alog.Record(audit.Event{Rule: "incident_marker", Severity: audit.SevWarn,
		Scope: "2014Q1", Message: "synthetic incident for diag test"})

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/diag/"+reqID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/diag/%s = %d: %s", reqID, rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{
		"id=" + reqID,     // the wide event
		"trace " + reqID,  // the joined span tree
		"store_load",      // the trace's real spans
		"incident_marker", // the in-window audit event
	} {
		if !strings.Contains(body, want) {
			t.Errorf("diag view missing %q:\n%s", want, body)
		}
	}

	// The latency histogram's OpenMetrics rendering links the trace.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), `trace_id="`+reqID+`"`) {
		t.Error("OpenMetrics exposition missing the request's exemplar")
	}
	if !strings.Contains(rec.Body.String(), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}

	// And /debug/events can query it back out.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events?where=id="+reqID, nil))
	if !strings.Contains(rec.Body.String(), "cache=lru_miss") {
		t.Errorf("/debug/events missing the request event:\n%s", rec.Body.String())
	}
}

// TestProfilesGzipNegotiation pins satellite behavior: the profile
// index compresses for gzip-accepting clients while artifact downloads
// (application/octet-stream) stay identity-encoded.
func TestProfilesGzipNegotiation(t *testing.T) {
	w, alog := newFullStack(t)
	if _, err := w.captor.Store().Add("cpu", "test", "", "", []byte("pprofdata"), 0); err != nil {
		t.Fatal(err)
	}
	h := mineHandler(t, w, alog)

	get := func(url string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := get("/debug/profiles")
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Errorf("profile index not gzipped: %v", rec.Header())
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(zr)
	if !strings.Contains(string(idx), "000000-cpu") {
		t.Errorf("index missing artifact: %s", idx)
	}
	rec = get("/debug/profiles/000000-cpu")
	if rec.Code != http.StatusOK {
		t.Fatalf("artifact download = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") == "gzip" {
		t.Error("octet-stream artifact download must stay uncompressed")
	}
	if rec.Body.String() != "pprofdata" {
		t.Errorf("artifact bytes = %q", rec.Body.String())
	}
}

// TestWatchRoutesGzip pins satellite behavior: the watch JSON GETs
// negotiate gzip.
func TestWatchRoutesGzip(t *testing.T) {
	w, alog := newFullStack(t)
	h := mineHandler(t, w, alog)
	for _, url := range []string{"/api/watchlists?user=alice", "/api/watch/stats"} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", url, rec.Code)
		}
		if rec.Header().Get("Content-Encoding") != "gzip" {
			t.Errorf("%s not gzipped: %v", url, rec.Header())
		}
	}
}
