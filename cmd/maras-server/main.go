// Command maras-server serves the MARAS interactive visual interface
// (Chapter 4): a panoramagram of contextual glyphs over the ranked
// signals, per-signal zoom views with the MCAC bar-chart alternative,
// drug/reaction search, and drill-down to the raw supporting reports.
//
// The server is fully instrumented (see README "Observability"):
// every route carries request logging, latency histograms, status
// counters, and panic recovery; /metrics serves Prometheus text (or
// the expvar JSON dump with ?format=json), /healthz reports
// liveness, /debug/vars is the standard expvar endpoint, and
// /debug/pprof/* exposes the runtime profiler. Shutdown on
// SIGINT/SIGTERM drains in-flight requests.
//
// Usage:
//
//	maras-server -data data -quarter 2014Q1 [-addr :8080] [-minsup 8]
//	             [-log-format text|json] [-log-level debug|info|warn|error]
//	maras-server -store snapshots/ [-addr :8080] ...
//
// With -store the server mines nothing: it serves pre-mined quarter
// snapshots (written by maras-mine -snapshot-out) from the given
// directory — the latest quarter at /, every quarter under
// /q/{label}/..., the inventory at /api/quarters and /quarters, and
// cross-quarter signal trajectories at /api/timeline/{drugkey}. See
// store.go. Without -store the server mines -quarter from -data into a
// temporary store and then serves it exactly as -store does, so the
// same routes answer there too; the directory is removed on clean
// shutdown.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/glyph"
	"maras/internal/knowledge"
	"maras/internal/network"
	"maras/internal/obs"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/replica"
	"maras/internal/resilience"
	"maras/internal/store"
	"maras/internal/strata"
	"maras/internal/watch"
)

// svgCacheControl marks the per-rank SVG renders as immutable: a
// rank's glyph never changes within one server process, so browsers
// paging through the panoramagram should not re-fetch.
const svgCacheControl = "public, max-age=86400, immutable"

// shutdownGrace bounds how long graceful shutdown waits for in-flight
// requests to drain.
const shutdownGrace = 15 * time.Second

type server struct {
	analysis *core.Analysis
	quarter  string
	logger   *slog.Logger
}

// log returns the configured logger, or a discard logger so handler
// code never nil-checks (tests construct bare servers).
func (s *server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// quarterMux assembles just the per-quarter application routes —
// the unit store mode mounts once per quarter, under its own outer
// instrumentation, without duplicating the operational endpoints.
func (s *server) quarterMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/signal/", s.handleSignal)
	mux.HandleFunc("/glyph/", s.handleGlyph)
	mux.HandleFunc("/barchart/", s.handleBarChart)
	mux.HandleFunc("/report/", s.handleReport)
	mux.HandleFunc("/api/signals", s.handleAPISignals)
	mux.HandleFunc("/network.dot", s.handleNetworkDOT)
	mux.HandleFunc("/network.json", s.handleNetworkJSON)
	return mux
}

func main() {
	var (
		data      = flag.String("data", "data", "directory with FAERS quarter files")
		quarter   = flag.String("quarter", "2014Q1", "quarter label")
		storeDir  = flag.String("store", "", "serve pre-mined quarter snapshots from this directory instead of mining")
		addr      = flag.String("addr", ":8080", "listen address")
		minsup    = flag.Int("minsup", 8, "absolute minimum support")
		topK      = flag.Int("top", 60, "signals to keep")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")

		traceCap  = flag.Int("trace-journal", obs.DefaultJournalCapacity, "completed request traces kept in the in-memory journal (0 disables span tracing)")
		traceSlow = flag.Duration("trace-slow", obs.DefaultSlowThreshold, "requests at or above this duration are flagged slow in the trace journal")

		wideCap    = flag.Int("wide-events", wide.DefaultCapacity, "wide events kept in the in-memory ring behind /debug/events and /debug/diag (0 disables wide-event telemetry)")
		wideSample = flag.Int("wide-sample", 1, "keep every Nth wide event (1 keeps all)")

		runtimeSample = flag.Duration("runtime-sample", obs.DefaultSampleInterval, "runtime health sampling interval (0 disables the sampler)")
		wdGoroutines  = flag.Int64("watchdog-max-goroutines", 10000, "watchdog: warn and count when goroutines exceed this (0 disables)")
		wdGCPause     = flag.Duration("watchdog-max-gc-pause", 250*time.Millisecond, "watchdog: warn and count when a GC pause exceeds this (0 disables)")

		auditTopK      = flag.Int("audit-topk", 25, "audit: rank cutoff for drift comparison (negative = all signals)")
		auditChurnWarn = flag.Float64("audit-churn-warn", 0.5, "audit: warn when the top-K churn rate between quarters reaches this")
		auditDropWarn  = flag.Float64("audit-drop-warn", 0.6, "audit: warn when a quarter's cleaning drop rate reaches this")

		historyScrape    = flag.Duration("history-scrape", 10*time.Second, "metrics history scrape interval (0 disables history and the SLO engine)")
		historyRetention = flag.Duration("history-retention", 6*time.Hour, "how far back metrics history windows can reach")
		sloAvailability  = flag.Float64("slo-availability", 0.995, "SLO: target fraction of requests answered without a 5xx (0 disables)")
		sloP99           = flag.Duration("slo-p99", 500*time.Millisecond, "SLO: p99 request latency target (0 disables)")
		sloStaleCeiling  = flag.Float64("slo-stale-ceiling", 0.05, "SLO: max fraction of requests served from the stale cache (0 disables)")
		sloShedCeiling   = flag.Float64("slo-shed-ceiling", 0.10, "SLO: max fraction of requests shed by the bulkhead (0 disables)")
		sloWindowScale   = flag.Float64("slo-window-scale", 1, "SLO: multiply the burn-rate rule windows (sub-1 values shrink 5m/1h to test burn dynamics quickly)")
		sloCooldown      = flag.Duration("slo-cooldown", 0, "SLO: clean time before an active breach clears (0 = each rule's short window)")

		watchFile    = flag.String("watch-file", "", "persist watchlists to this snapshot file (store mode defaults to <store>/watchlists.mrwl; empty elsewhere keeps lists in memory)")
		watchUserCap = flag.Int("watch-user-cap", 100, "max watchlists per user")
		watchFeedCap = flag.Int("watch-feed-cap", watch.DefaultFeedCapacity, "alerts retained per user feed")
		watchBudget  = flag.Duration("watch-eval-budget", watch.DefaultEvalBudget, "watch evaluation latency budget; slower passes raise a warn audit event")

		profDir       = flag.String("prof-dir", "", "continuous profiling: record capture artifacts into this directory (empty disables)")
		profCPUWindow = flag.Duration("prof-cpu-window", prof.DefaultCPUWindow, "continuous profiling: CPU sampling window per scheduled capture")
		profInterval  = flag.Duration("prof-interval", prof.DefaultInterval, "continuous profiling: scheduled capture period (0 keeps only anomaly-triggered captures)")
		profRetain    = flag.Int("prof-retain", prof.DefaultMaxArtifacts, "continuous profiling: capture artifacts retained on disk")
		profRetainMB  = flag.Int("prof-retain-mb", 64, "continuous profiling: megabytes of capture artifacts retained on disk")
		profCooldown  = flag.Duration("prof-trigger-cooldown", prof.DefaultCooldown, "continuous profiling: minimum gap between anomaly-triggered captures of the same cause")
		mutexFraction = flag.Int("mutex-profile-fraction", 0, "sample 1/N of mutex contention events into /debug/pprof/mutex (0 disables)")
		blockRate     = flag.Duration("block-profile-rate", 0, "record goroutine blocking events at least this long into /debug/pprof/block (0 disables)")

		peers          = flag.String("peers", "", "comma-separated base URLs of replica peers to sync snapshots from (store mode only)")
		syncInterval   = flag.Duration("sync-interval", replica.DefaultInterval, "anti-entropy sync loop period, jittered ±25% (effective with -peers)")
		replicaListen  = flag.String("replica-listen", "", "serve the /sync/* replica endpoints on this extra listener too (store mode only; they are always mounted on -addr outside the bulkhead)")
		rescanInterval = flag.Duration("rescan-interval", 0, "re-scan the snapshot directory on this jittered period to pick up externally written files (0 disables; store mode only)")

		failpoints  = flag.String("failpoints", "", "arm fault-injection sites, e.g. 'store/decode=error*1;store/load=delay(50ms,0.2)' (also read from "+resilience.FailpointEnv+")")
		maxInflight = flag.Int("max-inflight", 64, "bulkhead: application requests executing concurrently (0 disables load shedding)")
		shedQueue   = flag.Int("shed-queue", 64, "bulkhead: requests allowed to queue for a slot before overflow sheds with 503")
		shedWait    = flag.Duration("shed-wait", 250*time.Millisecond, "bulkhead: how long a queued request waits for a slot before being shed")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maras-server:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)

	// Replication only makes sense over a durable snapshot store: the
	// temporary store a server mines into at startup vanishes with it.
	if *storeDir == "" && (*peers != "" || *replicaListen != "" || *rescanInterval > 0) {
		fmt.Fprintln(os.Stderr, "maras-server: -peers, -replica-listen, and -rescan-interval require -store")
		os.Exit(2)
	}

	// Arm failpoints from the environment first, then the flag (the
	// flag adds to or overrides the env spec site by site).
	if spec, err := resilience.EnableFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "maras-server:", err)
		os.Exit(2)
	} else if spec != "" {
		logger.Warn("failpoints armed from env", "spec", spec)
	}
	if *failpoints != "" {
		if err := resilience.Enable(*failpoints); err != nil {
			fmt.Fprintln(os.Stderr, "maras-server:", err)
			os.Exit(2)
		}
		logger.Warn("failpoints armed", "spec", *failpoints)
	}

	// Runtime contention profiling: off unless asked for, because both
	// collectors cost on every contention event. Set before any real
	// work so the profiles cover the whole process lifetime.
	prof.EnableMutexProfiling(*mutexFraction)
	prof.EnableBlockProfiling(*blockRate)

	reg := obs.NewRegistry()
	reg.PublishExpvar("maras_metrics")
	mw := obs.NewHTTPMetrics(reg, logger)
	tracer := obs.NewTracer(logger)

	var journal *obs.Journal
	if *traceCap > 0 {
		journal = obs.NewJournal(*traceCap, *traceSlow)
		mw.EnableTracing(journal)
	}
	ready := &obs.Readiness{}

	// Wide-event telemetry: one flat record per request (and per store
	// load, watch evaluation, and mining run) into the columnar ring
	// behind /debug/events and /debug/diag. A nil ring no-ops at every
	// emission point, so the wiring below is unconditional.
	var events *wide.Ring
	if *wideCap > 0 {
		events = wide.NewRing(*wideCap, *wideSample, reg)
		mw.OnComplete(events.EmitRequest)
	}

	// The audit pillar: one event log for the process, fed by quality
	// and drift evaluations and by runtime watchdog excursions.
	alog := audit.NewLog(audit.LogOptions{Logger: logger, Metrics: reg})
	auditor := &audit.Auditor{
		Log: alog,
		Thresholds: audit.Thresholds{
			TopK:      *auditTopK,
			ChurnWarn: *auditChurnWarn,
			DropWarn:  *auditDropWarn,
		},
		Metrics: reg,
	}

	// The lifecycle context ends on SIGINT/SIGTERM. Created before any
	// background work starts so the audit sweep (and anything else
	// holding it) stops with the process instead of leaking through
	// shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var shed *resilience.Bulkhead
	if *maxInflight > 0 {
		var err error
		shed, err = resilience.NewBulkhead(reg, resilience.BulkheadConfig{
			MaxConcurrent: *maxInflight,
			MaxWaiting:    *shedQueue,
			MaxWait:       *shedWait,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "maras-server:", err)
			os.Exit(2)
		}
	}

	// The SLO stack: scrape the registry into ring-buffer history and
	// evaluate burn-rate rules on every sample. Shares the audit log
	// and readiness probe with the rest of the alerting spine.
	slos := newSLOStack(reg, alog, ready, logger, sloOptions{
		scrape:       *historyScrape,
		retention:    *historyRetention,
		availability: *sloAvailability,
		p99:          *sloP99,
		staleCeiling: *sloStaleCeiling,
		shedCeiling:  *sloShedCeiling,
		windowScale:  *sloWindowScale,
		cooldown:     *sloCooldown,
	})

	// Continuous profiling: scheduled capture cycles into the on-disk
	// artifact ring, plus anomaly-triggered snapshots from the audit
	// log (watchdog violations, SLO burns, slow watch passes) and from
	// the trace journal's slow-trace threshold. The trigger adapts
	// audit events to plain strings because obs/prof cannot import
	// internal/audit (audit → core → prof would cycle).
	var captor *prof.Captor
	if *profDir != "" {
		pstore, err := prof.OpenStore(*profDir, prof.StoreOptions{
			MaxArtifacts: *profRetain,
			MaxBytes:     int64(*profRetainMB) << 20,
			Metrics:      reg,
			Logger:       logger,
			// Back-link wide events to the artifact that profiled them:
			// the CPU window plus slack covers the capture's extent.
			OnAdd: func(a prof.Artifact) {
				events.LinkProfile(a.ID, a.TakenAt, *profCPUWindow+5*time.Second)
			},
		})
		if err != nil {
			logger.Error("open profile store", "err", err)
			os.Exit(1)
		}
		captor = prof.NewCaptor(prof.CaptorOptions{
			Store:     pstore,
			CPUWindow: *profCPUWindow,
			Interval:  *profInterval,
			Metrics:   reg,
			Logger:    logger,
		})
		captor.Start(ctx)
		defer captor.Stop()
		trigger := prof.NewTrigger(prof.TriggerOptions{
			Captor:   captor,
			Cooldown: *profCooldown,
			Metrics:  reg,
			Logger:   logger,
		})
		alog.OnRecord(func(e audit.Event) {
			trigger.Observe(e.Rule, string(e.Severity), e.Scope, e.Message)
		})
		journal.OnSlow(func(tr obs.TraceRecord) {
			trigger.SlowTrace(tr.Name, tr.Duration())
		})
		logger.Info("continuous profiling enabled", "dir", *profDir,
			"interval", *profInterval, "cpu_window", *profCPUWindow,
			"retain", *profRetain, "retain_mb", *profRetainMB)
	}

	var sampler *obs.RuntimeSampler
	if *runtimeSample > 0 {
		sampler = obs.NewRuntimeSampler(reg, obs.RuntimeSamplerOptions{
			Interval:      *runtimeSample,
			MaxGoroutines: *wdGoroutines,
			MaxGCPause:    *wdGCPause,
			Logger:        logger,
			OnViolation:   auditor.RecordWatchdog,
		})
		sampler.Start()
		defer sampler.Stop()
	}

	// Watchlists persist next to the -store snapshots unless told
	// otherwise; a mined temporary store keeps them in memory unless
	// -watch-file is given. Drift events reach the evaluator through
	// the audit log subscription.
	wfile := *watchFile
	if wfile == "" && *storeDir != "" {
		wfile = filepath.Join(*storeDir, "watchlists.mrwl")
	}
	ws, err := newWatchStack(watchConfig{
		file:    wfile,
		userCap: *watchUserCap,
		feedCap: *watchFeedCap,
		budget:  *watchBudget,
	}, knowledge.Builtin(), reg, auditor, logger, events)
	if err != nil {
		logger.Error("open watchlists", "err", err)
		os.Exit(1)
	}
	alog.OnRecord(ws.ev.HandleAuditEvent)
	if ws.ix.Len() > 0 {
		logger.Info("watchlists loaded", "file", wfile, "lists", ws.ix.Len())
	}

	// Without -store, mine the quarter into a temporary store first;
	// from here on both invocations run the same store-mode server.
	// exit removes the temporary store too: os.Exit skips defers.
	dir, exit := *storeDir, os.Exit
	if dir == "" {
		opts := core.NewOptions()
		opts.MinSupport = *minsup
		opts.TopK = *topK
		opts.Tracer = tracer
		dir, err = mineIntoStore(*data, *quarter, opts, journal, events, logger)
		if err != nil {
			logger.Error("mine into store", "err", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		exit = func(code int) { os.RemoveAll(dir); os.Exit(code) }
	}
	ss, err := newStoreServer(dir, logger, tracer, obs.NewStoreMetrics(reg), auditor, ws, events)
	if err != nil {
		logger.Error("open store", "err", err)
		exit(1)
	}
	if *storeDir == "" {
		// Decode the mined quarter once before traffic arrives: the
		// registry's OnLoad hook seeds the watch vocabulary and fires
		// the alerts its signals qualify for.
		if _, err := ss.reg.Load(*quarter); err != nil {
			logger.Error("load mined quarter", "err", err)
			exit(1)
		}
	}
	// The replica node always exists in store mode so peers can pull
	// from this server even when it has no -peers of its own; the
	// sync loop only runs when there is someone to pull from.
	node := replica.NewNode(ss.reg, replica.Options{
		Name:     *addr,
		Peers:    splitPeers(*peers),
		Interval: *syncInterval,
		Metrics:  replica.NewMetrics(reg),
		Wide:     events,
		Auditor:  auditor,
		Logger:   logger,
		OnRound: func(st replica.SyncStats) {
			ready.SetDegraded("replica", st.Unreachable > 0)
		},
	})
	ss.replica = node
	if len(node.Peers()) > 0 {
		ss.reg.SetPeerFetch(node.FetchAnalysis)
		node.Start(ctx)
		logger.Info("replica sync started",
			"peers", node.Peers(), "interval", *syncInterval)
	}
	ss.reg.StartRescan(ctx, *rescanInterval)
	logger.Info("serving from store", "dir", dir,
		"quarters", len(ss.reg.Quarters()), "default", ss.reg.Latest())
	handler := ss.routes(wiring{reg: reg, mw: mw, journal: journal, ready: ready, shed: shed,
		slos: slos, ws: ws, captor: captor, events: events})
	ready.SetReady() // registry opened and scanned: the server can serve
	// Populate the audit timeline in the background: quality per
	// quarter, drift per adjacent pair. Serving never waits on it,
	// and the sweep stops with the lifecycle context on SIGTERM.
	go ss.auditSweep(ctx)
	// An optional second listener carries only the replica sync
	// endpoints, so operators can keep peer traffic off the public
	// address (and firewall the two apart).
	var replicaSrv *http.Server
	if *replicaListen != "" {
		rmux := http.NewServeMux()
		node.Mount(rmux)
		replicaSrv = newHTTPServer(*replicaListen, rmux, logger)
		go func() {
			if err := replicaSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("replica listener", "err", err)
			}
		}()
		logger.Info("replica sync listening", "addr", *replicaListen)
	}
	// Start scraping only once the serving mode is up: the first
	// scrape then sees every eagerly-registered route series, giving
	// the burn-rate windows a clean zero baseline.
	slos.start(ctx)

	srv := newHTTPServer(*addr, handler, logger)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		logger.Info("signal received, draining in-flight requests", "grace", shutdownGrace)
		// Stop the background samplers before draining: the audit
		// sweep already sees ctx canceled; the runtime sampler ticker
		// must not outlive the listener.
		if sampler != nil {
			sampler.Stop()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if replicaSrv != nil {
			if err := replicaSrv.Shutdown(shutdownCtx); err != nil {
				logger.Warn("replica listener shutdown", "err", err)
			}
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
			exit(1)
		}
		logger.Info("drained cleanly")
	}
}

// newHTTPServer configures a listener with the process's timeouts.
// The write timeout is generous: /debug/pprof/profile streams for 30s
// (configurable via ?seconds=) and must not be cut off.
func newHTTPServer(addr string, h http.Handler, logger *slog.Logger) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}
}

// splitPeers parses the -peers flag: comma-separated base URLs,
// whitespace-tolerant, trailing slashes dropped, empties skipped.
func splitPeers(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// mineIntoStore is the start-up of a server run without -store: it
// loads label's FAERS files from dataDir, mines them under the
// "startup" journal trace (journal may be nil), emits the mine wide
// event, logs the stage timings, and saves the analysis into a new
// temporary store whose directory it returns. The caller serves that
// directory in store mode and removes it on shutdown. opts.Tracer
// must be set: its stage records feed the log lines and the event.
func mineIntoStore(dataDir, label string, opts core.Options, journal *obs.Journal, events *wide.Ring, logger *slog.Logger) (string, error) {
	q, err := faers.LoadQuarter(dataDir, label)
	if err != nil {
		return "", fmt.Errorf("load quarter: %w", err)
	}
	logger.Info("mining", "quarter", label, "minsup", opts.MinSupport)
	// Trace the startup mine into the journal (trace "startup") so
	// /debug/traces explains where boot time went, stage by stage.
	ctx := context.Background()
	var tr *obs.Trace
	var root *obs.Span
	if journal != nil {
		tr = obs.NewTrace("startup")
		ctx, root = tr.StartRoot(ctx, "startup mine "+label)
	}
	a, err := core.RunQuarterContext(ctx, q, opts)
	if root != nil {
		root.End()
		journal.Add(tr.Snapshot())
	}
	if err != nil {
		return "", fmt.Errorf("pipeline: %w", err)
	}
	// The startup mine is a unit of work like any other: one wide
	// event, linked to the "startup" trace when tracing is on.
	wall := opts.Tracer.TotalDuration()
	events.Emit(wide.Event{
		Kind: wide.KindMine, Quarter: label, Status: 200,
		Duration: wall, Trace: root.TraceID(),
	})
	for _, st := range opts.Tracer.Records() {
		logger.Info("pipeline stage", "stage", st.Name,
			"duration", st.Duration().Round(time.Millisecond),
			"alloc_mb", st.AllocBytes>>20)
	}
	logger.Info("mined", "signals", len(a.Signals), "reports", a.Stats.Reports,
		"mining_wall", wall.Round(time.Millisecond))
	dir, err := os.MkdirTemp("", "maras-server-")
	if err != nil {
		return "", err
	}
	if err := store.WriteFile(filepath.Join(dir, label+store.Ext), label, a); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("save mined quarter: %w", err)
	}
	return dir, nil
}

// renderHTML executes a template into a buffer first so a mid-render
// failure can still produce a clean 500 instead of a half-written
// page (once bytes hit the wire the status is unfixable). The render
// runs under a "render:<name>" child span of the request trace.
func (s *server) renderHTML(w http.ResponseWriter, r *http.Request, name string, tmpl *template.Template, data any) {
	_, span := obs.StartSpan(r.Context(), "render:"+name)
	defer span.End()
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, data); err != nil {
		s.log().Error("template render", "template", name, "err", err)
		http.Error(w, "internal render error", http.StatusInternalServerError)
		return
	}
	span.SetInt("bytes", int64(buf.Len()))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := buf.WriteTo(w); err != nil {
		s.log().Warn("response write", "template", name, "err", err)
	}
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>MARAS — {{.Quarter}}</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
.grid{display:flex;flex-wrap:wrap;gap:12px}
.card{background:#fff;border:1px solid #ddd;border-radius:8px;padding:8px;width:180px;text-align:center}
.card a{text-decoration:none;color:#333;font-size:12px}
.known{color:#b33}
input{padding:6px;width:260px}
</style></head><body>
<h1>MARAS — Multi-Drug ADR Signals ({{.Quarter}})</h1>
<p>{{.Reports}} reports · {{.Drugs}} drugs · {{.Reactions}} reactions ·
{{.SignalCount}} ranked signals. Larger core + shorter sectors = more exclusive interaction.</p>
<form method="get"><input name="q" placeholder="search drug or reaction" value="{{.Query}}"></form>
<div class="grid">
{{range .Signals}}
  <div class="card">
    <a href="/signal/{{.Rank}}">
      <img src="/glyph/{{.Rank}}" width="160" height="160" alt="glyph">
      <div><b>#{{.Rank}}</b> {{.DrugList}}</div>
      <div>score {{printf "%.3f" .Score}}{{if .Known}} · <span class="known">known</span>{{end}}</div>
    </a>
  </div>
{{end}}
</div></body></html>`))

type indexData struct {
	Quarter     string
	Reports     int
	Drugs       int
	Reactions   int
	SignalCount int
	Query       string
	Signals     []indexSignal
}

type indexSignal struct {
	Rank     int
	Score    float64
	DrugList string
	Known    bool
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	query := strings.TrimSpace(r.URL.Query().Get("q"))
	signals := s.analysis.Signals
	if query != "" {
		// FilterSignals matches case-insensitively; one query suffices.
		signals = s.analysis.FilterSignals(query)
	}
	d := indexData{
		Quarter:     s.quarter,
		Reports:     s.analysis.Stats.Reports,
		Drugs:       s.analysis.Stats.Drugs,
		Reactions:   s.analysis.Stats.Reactions,
		SignalCount: len(s.analysis.Signals),
		Query:       query,
	}
	for _, sig := range signals {
		d.Signals = append(d.Signals, indexSignal{
			Rank:     sig.Rank,
			Score:    sig.Score,
			DrugList: strings.Join(sig.Drugs, " + "),
			Known:    sig.Known != nil,
		})
	}
	s.renderHTML(w, r, "index", indexTmpl, d)
}

var signalTmpl = template.Must(template.New("signal").Parse(`<!DOCTYPE html>
<html><head><title>MARAS signal #{{.Rank}}</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
.row{display:flex;gap:24px;align-items:flex-start}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px;font-size:13px}
.known{background:#fee;padding:8px;border-radius:6px}
</style></head><body>
<p><a href="/">&larr; all signals</a></p>
<h1>#{{.Rank}} {{.DrugList}} &rArr; {{.ReactionList}}</h1>
<p>score {{printf "%.4f" .Score}} · support {{.Support}} · confidence {{printf "%.3f" .Confidence}} · lift {{printf "%.2f" .Lift}}{{if .SOCList}} · {{.SOCList}}{{end}}</p>
{{if .Known}}<div class="known"><b>Known interaction</b> ({{.KnownSeverity}}): {{.KnownMechanism}} — <i>{{.KnownSource}}</i></div>{{end}}
<div class="row">
  <div><h3>Contextual glyph (zoom)</h3><img src="/glyph/{{.Rank}}?zoom=1" width="420"></div>
  <div><h3>MCAC bar-chart</h3><img src="/barchart/{{.Rank}}" width="420"></div>
</div>
<h3>Context (sub-rules)</h3>
<table><tr><th>Drugs</th><th>Confidence</th><th>Lift</th><th>Support</th></tr>
{{range .Context}}<tr><td>{{.Drugs}}</td><td>{{printf "%.3f" .Confidence}}</td><td>{{printf "%.2f" .Lift}}</td><td>{{.Support}}</td></tr>{{end}}
</table>
<h3>Demographics of supporting reports</h3>
<p>Sex: {{.SexBreakdown}} (χ²={{printf "%.1f" .SexChi}}) · Age: {{.AgeBreakdown}} (χ²={{printf "%.1f" .AgeChi}})
{{if .Enriched}}<br>Enriched strata: {{.Enriched}}{{end}}</p>
<h3>Supporting reports ({{len .ReportIDs}})</h3>
<p>{{range .ReportIDs}}<a href="/report/{{.}}">{{.}}</a> {{end}}</p>
</body></html>`))

type signalData struct {
	Rank           int
	Score          float64
	DrugList       string
	ReactionList   string
	Support        int
	Confidence     float64
	Lift           float64
	Known          bool
	KnownSeverity  string
	KnownMechanism string
	KnownSource    string
	Context        []contextRow
	ReportIDs      []string
	ReportList     string
	SOCList        string
	SexBreakdown   string
	AgeBreakdown   string
	SexChi         float64
	AgeChi         float64
	Enriched       string
}

type contextRow struct {
	Drugs      string
	Confidence float64
	Lift       float64
	Support    int
}

// renderDist formats a distribution as "F:12 M:3".
func renderDist(d strata.Distribution) string {
	parts := make([]string, 0, len(d))
	for _, k := range d.Keys() {
		parts = append(parts, fmt.Sprintf("%s:%d", k, d[k]))
	}
	return strings.Join(parts, " ")
}

func (s *server) signalByRank(path, prefix string) (*core.Signal, bool) {
	rankStr := strings.TrimPrefix(path, prefix)
	rankStr = strings.TrimSuffix(rankStr, "/")
	n, err := strconv.Atoi(rankStr)
	if err != nil || n < 1 || n > len(s.analysis.Signals) {
		return nil, false
	}
	return &s.analysis.Signals[n-1], true
}

func (s *server) handleSignal(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/signal/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	dict := s.analysis.Dict()
	d := signalData{
		Rank:         sig.Rank,
		Score:        sig.Score,
		DrugList:     strings.Join(sig.Drugs, " + "),
		ReactionList: strings.Join(sig.Reactions, ", "),
		Support:      sig.Support,
		Confidence:   sig.Confidence,
		Lift:         sig.Lift,
		ReportIDs:    sig.ReportIDs,
		ReportList:   strings.Join(sig.ReportIDs, ", "),
	}
	socs := make([]string, len(sig.SOCs))
	for i, soc := range sig.SOCs {
		socs[i] = string(soc)
	}
	d.SOCList = strings.Join(socs, "; ")
	demo := s.analysis.Demographics(sig)
	d.SexBreakdown = renderDist(demo.SexSignal)
	d.AgeBreakdown = renderDist(demo.AgeSignal)
	d.SexChi = demo.SexChiSquare
	d.AgeChi = demo.AgeChiSquare
	d.Enriched = strings.Join(demo.Enriched(0.15), ", ")
	if sig.Known != nil {
		d.Known = true
		d.KnownSeverity = sig.Known.Severity.String()
		d.KnownMechanism = sig.Known.Mechanism
		d.KnownSource = sig.Known.Source
	}
	for _, cr := range sig.Cluster.ContextRules() {
		d.Context = append(d.Context, contextRow{
			Drugs:      strings.Join(dict.SortedNames(cr.Antecedent), " + "),
			Confidence: cr.Confidence,
			Lift:       cr.Lift,
			Support:    cr.Support,
		})
	}
	s.renderHTML(w, r, "signal", signalTmpl, d)
}

func (s *server) handleGlyph(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/glyph/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	_, span := obs.StartSpan(r.Context(), "render:glyph")
	defer span.End()
	span.SetInt("rank", int64(sig.Rank))
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", svgCacheControl)
	if r.URL.Query().Get("zoom") != "" {
		span.SetAttr("zoom", "true")
		fmt.Fprint(w, glyph.Zoom(sig.Cluster, s.analysis.Dict()))
		return
	}
	fmt.Fprint(w, glyph.Contextual(sig.Cluster, glyph.Options{Dict: s.analysis.Dict()}))
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><title>Report {{.PrimaryID}}</title>
<style>body{font-family:sans-serif;margin:2em;background:#fafafa}
td,th{border:1px solid #ccc;padding:4px 8px;font-size:13px}table{border-collapse:collapse}</style></head><body>
<p><a href="/">&larr; all signals</a></p>
<h1>Report {{.PrimaryID}}</h1>
<table>
<tr><th>Case</th><td>{{.CaseID}}</td></tr>
<tr><th>Type</th><td>{{.ReportCode}}</td></tr>
<tr><th>Age</th><td>{{.Age}} {{.AgeCode}}</td></tr>
<tr><th>Sex</th><td>{{.Sex}}</td></tr>
<tr><th>Country</th><td>{{.Country}}</td></tr>
<tr><th>Event date</th><td>{{.EventDate}}</td></tr>
<tr><th>Drugs</th><td>{{.DrugList}}</td></tr>
<tr><th>Reactions</th><td>{{.ReacList}}</td></tr>
<tr><th>Outcomes</th><td>{{.OutcomeList}}</td></tr>
</table></body></html>`))

// handleReport shows one raw report — the drill-down the paper's
// Section 4.1 requires ("analyze the original data reports submitted
// by patients that supports the corresponding drug-drug interactions").
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/report/"), "/")
	rep, ok := s.analysis.Report(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	data := struct {
		PrimaryID, CaseID, ReportCode, Age, AgeCode, Sex, Country, EventDate string
		DrugList, ReacList, OutcomeList                                      string
	}{
		PrimaryID: rep.PrimaryID, CaseID: rep.CaseID, ReportCode: rep.ReportCode,
		Age: rep.Age, AgeCode: rep.AgeCode, Sex: rep.Sex, Country: rep.Country,
		EventDate:   rep.EventDate,
		DrugList:    strings.Join(rep.Drugs, ", "),
		ReacList:    strings.Join(rep.Reactions, ", "),
		OutcomeList: strings.Join(rep.Outcomes, ", "),
	}
	s.renderHTML(w, r, "report", reportTmpl, data)
}

// handleAPISignals serves the ranked signals as JSON for programmatic
// clients.
func (s *server) handleAPISignals(w http.ResponseWriter, r *http.Request) {
	type apiSignal struct {
		Rank         int      `json:"rank"`
		Score        float64  `json:"score"`
		Drugs        []string `json:"drugs"`
		Reactions    []string `json:"reactions"`
		Support      int      `json:"support"`
		Confidence   float64  `json:"confidence"`
		Lift         float64  `json:"lift"`
		Known        bool     `json:"known"`
		SeriousShare float64  `json:"serious_share"`
		ReportIDs    []string `json:"report_ids"`
	}
	_, span := obs.StartSpan(r.Context(), "render:api_signals")
	defer span.End()
	span.SetInt("signals", int64(len(s.analysis.Signals)))
	out := make([]apiSignal, len(s.analysis.Signals))
	for i, sig := range s.analysis.Signals {
		out[i] = apiSignal{
			Rank: sig.Rank, Score: sig.Score, Drugs: sig.Drugs, Reactions: sig.Reactions,
			Support: sig.Support, Confidence: sig.Confidence, Lift: sig.Lift,
			Known: sig.Known != nil, SeriousShare: sig.SeriousShare, ReportIDs: sig.ReportIDs,
		}
	}
	// Encode before writing: a marshal failure must yield a real 500,
	// not a truncated 200 body.
	body, err := json.Marshal(out)
	if err != nil {
		s.log().Error("api signals encode", "err", err)
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.log().Warn("api signals write", "err", err)
	}
}

// handleNetworkDOT exports the drug-interaction graph as Graphviz DOT.
func (s *server) handleNetworkDOT(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, network.Build(s.analysis.Signals).DOT())
}

// handleNetworkJSON exports the graph as d3-style nodes/links JSON.
func (s *server) handleNetworkJSON(w http.ResponseWriter, r *http.Request) {
	data, err := network.Build(s.analysis.Signals).JSON()
	if err != nil {
		s.log().Error("network json", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.log().Warn("network json write", "err", err)
	}
}

func (s *server) handleBarChart(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/barchart/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	_, span := obs.StartSpan(r.Context(), "render:barchart")
	defer span.End()
	span.SetInt("rank", int64(sig.Rank))
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", svgCacheControl)
	fmt.Fprint(w, glyph.BarChart(sig.Cluster, glyph.Options{Size: 420, Dict: s.analysis.Dict()}))
}
