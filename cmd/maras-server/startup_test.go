package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/obs/wide"
	"maras/internal/store"
	"maras/internal/synth"
)

// TestMineIntoStoreServesInStoreMode drives the start-up of a server
// run without -store end to end: FAERS files on disk → mineIntoStore →
// the store-mode server over the temporary store, with the full stack
// main wires (journal, wide-event ring, watch stack included).
func TestMineIntoStoreServesInStoreMode(t *testing.T) {
	const label = "2014Q1"
	cfg := synth.DefaultConfig(label, 1)
	cfg.Reports = 2000
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	if err := faers.SaveQuarter(data, q); err != nil {
		t.Fatal(err)
	}

	w, alog := newFullStack(t)
	journal, events, ws := w.journal, w.events, w.ws

	opts := core.NewOptions()
	opts.MinSupport = 8
	opts.TopK = 60
	opts.Tracer = obs.NewTracer(nil)
	dir, err := mineIntoStore(data, label, opts, journal, events, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ss, err := newStoreServer(dir, nil, opts.Tracer, obs.NewStoreMetrics(w.reg),
		&audit.Auditor{Log: alog, Metrics: w.reg}, ws, events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.reg.Load(label); err != nil {
		t.Fatal(err)
	}
	h := ss.routes(w)

	// The in-memory run the served signals must reproduce.
	memOpts := opts
	memOpts.Tracer = nil
	want, err := core.RunQuarter(q, memOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Signals) == 0 {
		t.Fatal("fixture quarter mined no signals")
	}

	// The watch vocabulary knows the mined drugs before any request.
	ws.drugMu.RLock()
	vocab := len(ws.drugs)
	ws.drugMu.RUnlock()
	if vocab == 0 {
		t.Fatal("watch vocabulary empty before the first request")
	}
	for _, sig := range want.Signals {
		drugs := make([]string, len(sig.Drugs))
		for i, d := range sig.Drugs {
			drugs[i] = strings.ToUpper(d)
		}
		if d := ws.unknownDrug(drugs); d != "" {
			t.Fatalf("watch vocabulary misses mined drug %q", d)
		}
	}

	// The startup mine is journaled as trace "startup" with one child
	// span per pipeline stage, and emitted as exactly one mine event.
	var startup *obs.TraceRecord
	for _, tr := range journal.Recent(0) {
		if tr.ID == "startup" {
			startup = &tr
		}
	}
	if startup == nil {
		t.Fatal(`journal has no "startup" trace`)
	}
	stages := 0
	for _, sp := range startup.Spans {
		if strings.HasPrefix(sp.Name, "stage:") && sp.Parent != -1 {
			stages++
		}
	}
	if stages == 0 {
		t.Errorf("startup trace has no stage:* child spans: %+v", startup.Spans)
	}
	mines := events.Run(wide.Query{Where: []wide.Cond{{Field: "kind", Value: wide.KindMine}}})
	if mines.Matched != 1 {
		t.Errorf("mine wide events = %d, want 1", mines.Matched)
	}

	for _, url := range []string{"/", "/signal/1", "/q/" + label + "/api/signals"} {
		rec := getMux(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", url, rec.Code)
		}
		if got := rec.Header().Get(store.OriginHeader); got != string(store.OriginLocal) {
			t.Errorf("%s %s = %q, want local", url, store.OriginHeader, got)
		}
	}

	var inv struct {
		Default  string   `json:"default"`
		Quarters []string `json:"quarters"`
	}
	if err := json.Unmarshal(getMux(t, h, "/api/quarters").Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if inv.Default != label || !reflect.DeepEqual(inv.Quarters, []string{label}) {
		t.Errorf("/api/quarters = %+v", inv)
	}

	type served struct {
		Rank      int      `json:"rank"`
		Score     float64  `json:"score"`
		Drugs     []string `json:"drugs"`
		Reactions []string `json:"reactions"`
	}
	var got []served
	if err := json.Unmarshal(getMux(t, h, "/q/"+label+"/api/signals").Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Signals) {
		t.Fatalf("served %d signals, in-memory run has %d", len(got), len(want.Signals))
	}
	for i, sig := range want.Signals {
		w := served{Rank: sig.Rank, Score: sig.Score, Drugs: sig.Drugs, Reactions: sig.Reactions}
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("signal %d: served %+v, in-memory %+v", i, got[i], w)
		}
	}
}
