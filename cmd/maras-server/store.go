package main

// Store mode, the one serving path: maras-server -store DIR serves a
// directory of per-quarter snapshots written by maras-mine
// -snapshot-out (or the registry itself); without -store, main first
// mines one quarter into a temporary directory (mineIntoStore). The
// server only ever decodes snapshots, and one process serves every
// quarter:
//
//	/                       the latest quarter's full UI + API
//	/q/{label}/...          any quarter's UI + API (e.g. /q/2014Q2/api/signals)
//	/quarters               human quarters index: quality verdicts + drift vs prev
//	/api/quarters           what is on disk, and which quarter is default
//	/api/timeline/{drugkey} a combination's cross-quarter trajectory
//	/api/quality/{label}    a quarter's ingest-quality report (see internal/audit)
//	/api/drift/{from}/{to}  signal churn between two stored quarters
//	/debug/audit            the audit event timeline (?format=json)
//
// Warm quarters are held in the registry's LRU; /metrics exposes the
// store series (load latency, open-quarter gauge, hit/miss/eviction
// counters) next to the HTTP series.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/obs/history"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/replica"
	"maras/internal/resilience"
	"maras/internal/slo"
	"maras/internal/store"
	"maras/internal/trend"
)

// staleRetryAfter is the Retry-After hint on quarter routes that can
// serve nothing at all (no fresh load, no stale copy): long enough for
// a breaker cooldown to elapse before the client returns.
const staleRetryAfter = "5"

type storeServer struct {
	reg     *store.Registry
	logger  *slog.Logger
	auditor *audit.Auditor
	started time.Time
	ready   *obs.Readiness // degraded flag target; set by routes, may be nil
	slos    *sloStack      // SLO rollup for the quarters page; set by routes, may be nil
	// replica, when non-nil, is this node's replication layer: routes
	// mounts its /sync endpoints (outside the bulkhead) and quarter
	// routing consults its peer inventories before 404ing a label the
	// local disk has never seen. Assigned after newStoreServer, before
	// routes.
	replica *replica.Node

	mu       sync.Mutex
	handlers map[string]http.Handler // per-quarter muxes, dropped on LRU evict
	// fallbackHandlers caches the mux built over a quarter's fallback
	// analysis (last-good stale copy or a peer-fetched one), keyed by
	// quarter and invalidated when the copy itself changes.
	// Deliberately NOT dropped on LRU evict: the whole point is
	// surviving the live path going away.
	fallbackHandlers map[string]fallbackHandler
}

type fallbackHandler struct {
	a *core.Analysis
	h http.Handler
}

// newStoreServer opens the snapshot registry in dir and binds it to
// the serving layer. tracer, metrics, and auditor may be nil (a nil
// auditor disables the event log; reports still compute at default
// thresholds). The registry runs with the resilience layer on:
// per-quarter load breakers, transient-failure retry, corrupt-snapshot
// quarantine, and the last-good stale cache behind graceful
// degradation.
func newStoreServer(dir string, logger *slog.Logger, tracer *obs.Tracer, m *obs.StoreMetrics, auditor *audit.Auditor, ws *watchStack, events *wide.Ring) (*storeServer, error) {
	ss := &storeServer{
		logger:           logger,
		auditor:          auditor,
		started:          time.Now(),
		handlers:         map[string]http.Handler{},
		fallbackHandlers: map[string]fallbackHandler{},
	}
	reg, err := store.OpenRegistry(dir, store.RegistryOptions{
		Metrics: m,
		Tracer:  tracer,
		Auditor: auditor,
		OnEvict: ss.dropHandler,
		// Every cold decode flows into the watchlist evaluator (a nil
		// ws makes this a no-op), so quarter loads and refreshes fire
		// alerts without any polling.
		OnLoad:     ws.onQuarterLoaded,
		Wide:       events,
		Resilience: &store.ResilienceOptions{Quarantine: true},
	})
	if err != nil {
		return nil, err
	}
	ss.reg = reg
	return ss, nil
}

func (ss *storeServer) log() *slog.Logger {
	if ss.logger != nil {
		return ss.logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// wiring carries the process-wide subsystems routes mounts; ready
// gates /readyz and carries the degraded flag. Any other nil member
// disables its surface (no tracing, shedding, history/SLO, watch
// routes, profiles, or wide events; their endpoints 404).
type wiring struct {
	reg     *obs.Registry
	mw      *obs.HTTPMetrics
	journal *obs.Journal
	ready   *obs.Readiness
	shed    *resilience.Bulkhead
	slos    *sloStack
	ws      *watchStack
	captor  *prof.Captor
	events  *wide.Ring
}

// routes assembles the serving mux: quarter-scoped and default-quarter
// application routes under observability middleware, plus the
// operational endpoints (metrics, health, traces, audit, history, SLO,
// wide events, profiles, pprof). The bulkhead wraps only the
// application routes — the operational endpoints stay reachable at
// any load, which is when an operator needs them most. The text-heavy
// operational endpoints negotiate gzip.
func (ss *storeServer) routes(w wiring) http.Handler {
	ss.ready = w.ready
	ss.slos = w.slos
	app := func(h http.HandlerFunc) http.Handler { return w.shed.Middleware(h) }
	mw := w.mw
	mux := http.NewServeMux()
	// The JSON APIs negotiate gzip: quarter inventories, timelines,
	// quality reports, and drift reports are repetitive text that
	// compresses an order of magnitude for polling clients.
	mw.Handle(mux, "/api/quarters", obs.GzipHandler(app(ss.handleQuarters)))
	mw.Handle(mux, "/api/timeline/", obs.GzipHandler(app(ss.handleTimeline)))
	mw.Handle(mux, "/api/quality/", obs.GzipHandler(app(ss.handleQuality)))
	mw.Handle(mux, "/api/drift/", obs.GzipHandler(app(ss.handleDrift)))
	mw.Handle(mux, "/quarters", app(ss.handleQuartersPage))
	mw.Handle(mux, "/q/", app(ss.handleQuarterScoped))
	// Each page quarterMux serves keeps its own metrics label; "/" takes
	// the index, the rest, and a bare "/signal", whose redirect the
	// quarter's mux answers with the serving origin.
	root := mw.Wrap("/", app(ss.handleDefaultQuarter))
	mux.Handle("/", root)
	for _, p := range []string{"/signal/", "/glyph/", "/barchart/", "/report/", "/api/signals", "/network.dot", "/network.json"} {
		mw.Handle(mux, p, app(ss.handleDefaultQuarter))
		if bare, ok := strings.CutSuffix(p, "/"); ok {
			mux.Handle(bare, root)
		}
	}
	w.ws.register(mux, mw, app)
	if ss.replica != nil {
		// The peer-sync endpoints mount OUTSIDE the bulkhead, next to
		// the operational surface: a node saturated with client traffic
		// must keep feeding its replicas, or one hot node degrades the
		// whole set. Inventories are repetitive JSON, so they gzip;
		// snapshot bodies are CRC-carrying binaries and stay identity.
		mw.Handle(mux, "/sync/inventory", obs.GzipHandler(ss.replica.InventoryHandler()))
		mw.Handle(mux, "/sync/snapshot/", ss.replica.SnapshotHandler())
	}

	// Build identity is registered once per process and echoed on
	// /healthz and /readyz next to the store detail.
	bi := obs.RegisterBuildInfo(w.reg)
	detail := func() map[string]any {
		m := bi.Detail()
		for k, v := range ss.healthDetail() {
			m[k] = v
		}
		return m
	}
	// A nil log (auditing disabled) makes /debug/audit answer 404.
	var alog *audit.Log
	if ss.auditor != nil {
		alog = ss.auditor.Log
	}
	mux.Handle("/metrics", obs.GzipHandler(obs.MetricsHandler(w.reg)))
	mux.Handle("/healthz", obs.HealthzHandler(detail))
	mux.Handle("/readyz", obs.ReadyzHandler(w.ready, detail))
	mux.Handle("/debug/traces", obs.GzipHandler(obs.TracesHandler(w.journal)))
	mux.Handle("/debug/audit", obs.GzipHandler(audit.Handler(alog)))
	mux.Handle("/debug/history", obs.GzipHandler(history.Handler(w.slos.history())))
	mux.Handle("/api/history/", obs.GzipHandler(history.APIHandler(w.slos.history(), "/api/history/")))
	mux.Handle("/api/slo", obs.GzipHandler(slo.Handler(w.slos.engine())))
	mux.Handle("/debug/vars", obs.ExpvarHandler())
	// The profile index and JSON listing negotiate gzip like the other
	// text surfaces; artifact downloads (application/octet-stream) pass
	// through uncompressed so clients keep a trustworthy Content-Length.
	profH := obs.GzipHandler(prof.Handler(w.captor, "/debug/profiles"))
	mux.Handle("/debug/profiles", profH)
	mux.Handle("/debug/profiles/", profH)
	mux.Handle("/debug/events", obs.GzipHandler(wide.Handler(w.events)))
	mux.Handle("/debug/diag/", obs.GzipHandler(wide.DiagHandler(
		newDiag(w.events, w.journal, alog, w.slos, w.ready, w.captor), "/debug/diag/")))
	obs.RegisterPprof(mux)
	return mux
}

func (ss *storeServer) healthDetail() map[string]any {
	detail := map[string]any{
		"mode":           "store",
		"store_dir":      ss.reg.Dir(),
		"quarters":       len(ss.reg.Quarters()),
		"open_quarters":  ss.reg.OpenCount(),
		"default":        ss.reg.Latest(),
		"uptime_seconds": int64(time.Since(ss.started).Seconds()),
	}
	if ss.replica != nil {
		detail["replica"] = ss.replica.CurrentStatus()
	}
	if ss.reg.Degraded() {
		detail["degraded"] = true
		open := []string{}
		for label, st := range ss.reg.BreakerStates() {
			if st != resilience.StateClosed {
				open = append(open, label+":"+st.String())
			}
		}
		if len(open) > 0 {
			detail["breakers"] = open
		}
	}
	return detail
}

// noteDegradation mirrors the registry's degradation state onto the
// readiness probe after every quarter load, so /readyz flips to
// "degraded" the moment stale serving starts and back once the live
// path recovers.
func (ss *storeServer) noteDegradation() {
	ss.ready.SetDegraded("store", ss.reg.Degraded())
}

// peerHas reports whether a replica peer's last-known inventory
// advertises label.
func (ss *storeServer) peerHas(label string) bool {
	return ss.replica != nil && ss.replica.PeerHas(label)
}

// dropHandler is the registry's eviction callback: when a quarter's
// analysis leaves the LRU, the route handler holding it must go too,
// or the memory bound is fiction.
func (ss *storeServer) dropHandler(label string) {
	ss.mu.Lock()
	delete(ss.handlers, label)
	ss.mu.Unlock()
	ss.log().Debug("quarter evicted", "quarter", label)
}

// quarterHandler returns the per-quarter application mux, loading the
// snapshot through the registry LRU on first touch. The lookup runs
// under a "quarter_mux" child span so a trace distinguishes the
// handler cache from a registry load: handler_cache=hit means the
// registry was never consulted this request. A non-local origin means
// the live load failed and the handler serves a fallback copy (the
// last-good stale snapshot, or one proxied from a replica peer).
func (ss *storeServer) quarterHandler(ctx context.Context, label string) (http.Handler, store.Origin, error) {
	ctx, span := obs.StartSpan(ctx, "quarter_mux")
	defer span.End()
	span.SetAttr("quarter", label)
	ss.mu.Lock()
	h := ss.handlers[label]
	ss.mu.Unlock()
	if h != nil {
		span.SetAttr("handler_cache", "hit")
		return h, store.OriginLocal, nil
	}
	span.SetAttr("handler_cache", "miss")
	a, origin, err := ss.reg.LoadResilient(ctx, label)
	defer ss.noteDegradation()
	if err != nil {
		return nil, "", err
	}
	if origin != store.OriginLocal {
		span.SetAttr("origin", string(origin))
		return ss.fallbackQuarterHandler(label, a), origin, nil
	}
	qs := &server{analysis: a, quarter: label, logger: ss.logger}
	h = qs.quarterMux()
	ss.mu.Lock()
	ss.handlers[label] = h
	ss.mu.Unlock()
	return h, store.OriginLocal, nil
}

// fallbackQuarterHandler returns (building if needed) the mux over a
// quarter's fallback analysis — stale or peer-fetched. Cached
// separately from the live handlers so LRU eviction cannot take it,
// and rebuilt only when the fallback copy itself changes.
func (ss *storeServer) fallbackQuarterHandler(label string, a *core.Analysis) http.Handler {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if fh, ok := ss.fallbackHandlers[label]; ok && fh.a == a {
		return fh.h
	}
	qs := &server{analysis: a, quarter: label, logger: ss.logger}
	h := qs.quarterMux()
	ss.fallbackHandlers[label] = fallbackHandler{a: a, h: h}
	return h
}

// serveQuarter dispatches a request into label's application mux with
// graceful degradation: a fresh handler when the live path works, the
// last-good stale copy or a replica peer's verified copy when it does
// not, and 503 with Retry-After — never a 500 — when no tier can
// answer. Every quarter response carries X-Maras-Origin
// (local|stale|peer); stale responses keep the X-Maras-Stale: 1
// header for back compatibility.
func (ss *storeServer) serveQuarter(w http.ResponseWriter, r *http.Request, label string) {
	h, origin, err := ss.quarterHandler(r.Context(), label)
	if err != nil {
		ss.log().Error("load quarter", "quarter", label, "err", err)
		w.Header().Set("Retry-After", staleRetryAfter)
		http.Error(w, fmt.Sprintf("quarter %s temporarily unavailable, retry later", label),
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(store.OriginHeader, string(origin))
	switch origin {
	case store.OriginStale:
		ss.log().Warn("serving stale quarter", "quarter", label)
		w.Header().Set("X-Maras-Stale", "1")
	case store.OriginPeer:
		ss.log().Warn("serving quarter from replica peer", "quarter", label)
	}
	h.ServeHTTP(w, r)
}

// handleDefaultQuarter serves the whole single-quarter application
// (index, signal pages, glyphs, /api/signals, network exports) for
// the latest quarter in the store.
func (ss *storeServer) handleDefaultQuarter(w http.ResponseWriter, r *http.Request) {
	label := ss.reg.Latest()
	if label == "" {
		http.Error(w, "store is empty: no quarter snapshots on disk", http.StatusServiceUnavailable)
		return
	}
	ss.serveQuarter(w, r, label)
}

// handleQuarterScoped serves /q/{label}/<rest> by dispatching <rest>
// into the named quarter's application mux.
func (ss *storeServer) handleQuarterScoped(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/q/")
	label, sub, _ := strings.Cut(rest, "/")
	if label == "" {
		http.NotFound(w, r)
		return
	}
	// A quarter missing from disk (e.g. quarantined) but held as a
	// last-good stale copy — or advertised by a replica peer — is
	// still servable; only a label nobody has seen is a true 404.
	if !ss.reg.Has(label) && !ss.reg.HasStale(label) && !ss.peerHas(label) {
		http.Error(w, fmt.Sprintf("quarter %q not in store", label), http.StatusNotFound)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + sub
	ss.serveQuarter(w, r2, label)
}

// handleQuarters lists what the store can serve.
func (ss *storeServer) handleQuarters(w http.ResponseWriter, r *http.Request) {
	// Rescan first: a miner may have dropped a new quarter in.
	if err := ss.reg.RefreshContext(r.Context()); err != nil {
		ss.log().Warn("store rescan", "err", err)
	}
	body, err := json.Marshal(struct {
		Default  string   `json:"default"`
		Quarters []string `json:"quarters"`
	}{Default: ss.reg.Latest(), Quarters: ss.reg.Quarters()})
	if err != nil {
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// timelinePoint mirrors trend.Point for the JSON API.
type timelinePoint struct {
	Quarter    string  `json:"quarter"`
	Rank       int     `json:"rank"` // 0 = not signaled that quarter
	Score      float64 `json:"score"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
}

// handleTimeline serves /api/timeline/{drugkey} where drugkey is the
// canonical combination key ("ASPIRIN+WARFARIN", any case or order) —
// the surveillance question answered across every stored quarter.
func (ss *storeServer) handleTimeline(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/timeline/"), "/")
	if raw == "" {
		http.Error(w, "usage: /api/timeline/DRUG+DRUG", http.StatusBadRequest)
		return
	}
	key := knowledge.DrugKey(strings.Split(raw, "+"))
	labels, traj, err := ss.reg.TimelineContext(r.Context(), key)
	if err != nil {
		ss.log().Error("timeline", "key", key, "err", err)
		http.Error(w, "timeline unavailable", http.StatusInternalServerError)
		return
	}
	if traj == nil {
		http.Error(w, fmt.Sprintf("combination %q never signaled in %d stored quarters", key, len(labels)),
			http.StatusNotFound)
		return
	}
	points := make([]timelinePoint, len(traj.Points))
	for i, p := range traj.Points {
		points[i] = timelinePoint{Quarter: p.Quarter, Rank: p.Rank, Score: p.Score,
			Support: p.Support, Confidence: p.Confidence}
	}
	body, err := json.Marshal(struct {
		Key       string          `json:"key"`
		Drugs     []string        `json:"drugs"`
		Reactions []string        `json:"reactions"`
		Class     trend.Class     `json:"class"`
		EmergedAt string          `json:"emerged_at,omitempty"`
		Points    []timelinePoint `json:"points"`
	}{
		Key: traj.Key, Drugs: traj.Drugs, Reactions: traj.Reactions,
		Class: traj.Classify(), EmergedAt: traj.EmergedAt(), Points: points,
	})
	if err != nil {
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
