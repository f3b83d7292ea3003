package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"maras/internal/assoc"
	"maras/internal/cleaning"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/fpgrowth"
	"maras/internal/knowledge"
	"maras/internal/mcac"
	"maras/internal/rank"
	"maras/internal/store"
	"maras/internal/txdb"
	"maras/internal/watch"
)

const mib = 1 << 20

// mineOptions are the options maras-mine -snapshot-out mines with.
func mineOptions() core.Options {
	opts := core.NewOptions()
	opts.MinSupport = 8
	opts.TopK = 0
	return opts
}

// subSeed derives an input seed for one use within a workload, so
// workloads and the quarters within one never share a draw.
func subSeed(workload string, seed int64, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, i)
	return int64(h.Sum64() >> 1)
}

// mineToSnapshot is the mining path a user runs: read the quarter's
// FAERS files, run the pipeline, write the snapshot. It returns the
// wall time of the whole path.
func mineToSnapshot(dataDir, label, storeDir string) (time.Duration, *core.Analysis, error) {
	start := time.Now()
	q, err := faers.LoadQuarter(dataDir, label)
	if err != nil {
		return 0, nil, err
	}
	a, err := core.RunQuarter(q, mineOptions())
	if err != nil {
		return 0, nil, err
	}
	if err := store.WriteFile(snapshotPath(storeDir, label), label, a); err != nil {
		return 0, nil, err
	}
	return time.Since(start), a, nil
}

func snapshotPath(storeDir, label string) string {
	return filepath.Join(storeDir, label+store.Ext)
}

func signalsOf(a *core.Analysis) []rankedSignal {
	out := make([]rankedSignal, len(a.Signals))
	for i, s := range a.Signals {
		out[i] = rankedSignal{Rank: s.Rank, Drugs: s.Drugs, Reactions: s.Reactions, Support: s.Support, Score: s.Score}
	}
	return out
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mib
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runMineQuarter mines one quarter repeatedly for the run's duration.
// Untraced, every repeat is the plain user path; traced, each round
// also repeats it under spans and once more layer by layer through
// the exported functions core.Run composes, which gives the
// per-layer times, allocations and counts.
func runMineQuarter(cfg runConfig) (*result, error) {
	res := newResult()
	const label = "2014Q1"
	dataDir := filepath.Join(cfg.workDir, "data")
	storeDir := filepath.Join(cfg.workDir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up is generating the quarter files; it is repeated so the
	// reported set-up time is a median.
	var setups []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		pool, err := population()
		if err != nil {
			return nil, err
		}
		if err := faers.SaveQuarter(dataDir, drawQuarter(pool, label, subSeed(cfg.workload, cfg.seed, 0), quarterCases)); err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(start)))
	}
	res.Metrics["setup_s"] = median(setups)
	res.Detail["setup_s_samples"] = setups

	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	lm := newLayerSamples()
	var (
		mineS, heapMB, snapMB []float64
		want                  string
		reports               int
		lists                 *watch.Index
	)
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin) < cfg.seconds; round++ {
		res.Attempted++
		d, a, err := mineToSnapshot(dataDir, label, storeDir)
		if err != nil {
			res.Failed++
			res.problem("mine repeat %d: %v", round, err)
			continue
		}
		mineS = append(mineS, secs(d))
		fp := fingerprint(signalsOf(a))
		if want == "" {
			want = fp
			reports = len(a.RawReports())
		} else if fp != want {
			res.Failed++
			res.problem("repeat %d: ranked signals fingerprint %s differs from first repeat's %s", round, fp, want)
		}
		if st, err := os.Stat(snapshotPath(storeDir, label)); err == nil {
			snapMB = append(snapMB, float64(st.Size())/mib)
		}
		if cfg.trace && lists == nil {
			if lists, err = watchlists(a, cfg.seed); err != nil {
				return nil, err
			}
		}
		// KeepAlive is a's last use, so the second measurement runs
		// without the analysis.
		with := liveHeapMB()
		runtime.KeepAlive(a)
		heapMB = append(heapMB, with-liveHeapMB())

		if cfg.trace {
			if err := tracedRound(rec, int64(round+1), dataDir, label, storeDir, lists, lm, want, res); err != nil {
				return nil, err
			}
		}
	}
	if len(mineS) == 0 {
		return nil, fmt.Errorf("no mining repeat succeeded: %v", res.Problems)
	}
	res.Detail["fingerprint"] = want
	res.Detail["mine_s_samples"] = mineS
	res.Detail["reports"] = reports

	res.Metrics["mine_s"] = median(mineS)
	res.Metrics["heap_mb"] = median(heapMB)
	res.Metrics["snapshot_mb"] = median(snapMB)
	// For the mining workload the unit of work is one quarter: its
	// latency percentiles, reports mined per second, and the peak
	// RSS of the process that mined.
	ms := make([]float64, len(mineS))
	for i, s := range mineS {
		ms[i] = s * 1000
	}
	res.Metrics["p50_ms"] = median(ms)
	p99, q := tail(ms)
	res.Metrics["p99_ms"] = p99
	res.Detail["p99_quantile"] = q
	res.Detail["latency_samples"] = len(ms)
	total := 0.0
	for _, s := range mineS {
		total += s
	}
	res.Metrics["sustained_rps"] = float64(reports*len(mineS)) / total
	if hwm, err := procStatusKB(os.Getpid(), "VmHWM"); err == nil {
		res.Metrics["server_rss_mb"] = float64(hwm) / 1024
	}

	if cfg.trace {
		res.Spans = rec.all()
		lm.report(res, median(mineS))
		if err := measureStoreReads(res, storeDir, label); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// watchlists registers analysts' watchlists over drugs the quarter
// signals: 8 users with 5 lists each, every list naming the drugs of a
// seeded pick among the top 300 signals (an assumed load; no observed
// watchlists exist).
func watchlists(a *core.Analysis, seed int64) (*watch.Index, error) {
	rng := rand.New(rand.NewSource(subSeed("watchlists", seed, 0)))
	ix := watch.NewIndex()
	for u := 0; u < 8; u++ {
		for l := 0; l < 5; l++ {
			sig := a.Signals[rng.Intn(min(300, len(a.Signals)))]
			w := &watch.Watchlist{ID: fmt.Sprintf("bench-%d-%d", u, l), User: fmt.Sprintf("analyst-%d", u),
				Name: fmt.Sprintf("list-%d", l), Drugs: append([]string(nil), sig.Drugs...)}
			if err := ix.Add(w); err != nil {
				return nil, err
			}
		}
	}
	return ix, nil
}

// layerSamples accumulates the traced rounds' per-layer figures.
type layerSamples struct {
	alloc  map[string][]float64 // layer -> MiB per round
	counts map[string]float64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{alloc: map[string][]float64{}, counts: map[string]float64{}}
}

// composedStages maps the spans of the composed pass to their
// metrics, in pipeline order. core.EncodeReports cleans as well as
// encodes; txdb.encode_s is its span less the cleaning.Clean span
// timed on its own (see report).
var composedStages = []struct{ span, metric, layer string }{
	{"core.EncodeReports", "txdb.encode_s", "txdb"},
	{"fpgrowth.Mine", "fpgrowth.mine_s", "fpgrowth"},
	{"fpgrowth.FilterClosed", "fpgrowth.closure_s", "fpgrowth"},
	{"assoc.FromItemsets", "assoc.rule_gen_s", "assoc"},
	{"mcac.BuildAll", "mcac.build_s", "mcac"},
	{"rank.Rank", "rank.rank_s", "rank"},
}

// cleaningInput is what core.EncodeReports hands to cleaning.Clean
// under opts: the expedited filter and the suspect-drug narrowing.
func cleaningInput(reports []faers.Report, opts core.Options) []faers.Report {
	if opts.ExpeditedOnly {
		reports = faers.FilterExpedited(reports)
	}
	if opts.SuspectOnly {
		narrowed := make([]faers.Report, len(reports))
		for i := range reports {
			narrowed[i] = reports[i]
			narrowed[i].Drugs = reports[i].SuspectDrugs()
			narrowed[i].DrugRoles = nil
		}
		reports = narrowed
	}
	return reports
}

// tracedRound runs the user path once under spans, then once more
// layer by layer, and checks that the composed layers rank exactly
// what core.Run ranks.
func tracedRound(rec *recorder, req int64, dataDir, label, storeDir string, lists *watch.Index, lm *layerSamples, want string, res *result) error {
	// The user path, one span per public call.
	root := rec.reserve()
	rootStart := time.Now()
	var (
		q   *faers.Quarter
		a   *core.Analysis
		err error
	)
	a0 := totalAlloc()
	rec.timed("faers.LoadQuarter", root, req, func() { q, err = faers.LoadQuarter(dataDir, label) })
	if err != nil {
		return err
	}
	a1 := totalAlloc()
	rec.timed("core.RunQuarter", root, req, func() { a, err = core.RunQuarter(q, mineOptions()) })
	if err != nil {
		return err
	}
	a2 := totalAlloc()
	rec.timed("store.WriteFile", root, req, func() { err = store.WriteFile(snapshotPath(storeDir, label), label, a) })
	if err != nil {
		return err
	}
	a3 := totalAlloc()
	rec.finish(root, "mine_quarter", 0, req, rootStart, time.Now())

	// Encoding alone, so the write's own share can be separated.
	var buf bytes.Buffer
	rec.timed("store.Write", 0, req, func() { err = store.Write(&buf, label, a) })
	if err != nil {
		return err
	}
	// The watch evaluation the server runs on every quarter it loads,
	// by a fresh evaluator, so every signal is new to it.
	ev := watch.NewEvaluator(watch.Options{Index: lists, Feeds: watch.NewFeeds(watch.DefaultFeedCapacity), Knowledge: knowledge.Builtin()})
	var wr watch.Result
	rec.timed("watch.EvaluateAnalysis", 0, req, func() { wr = ev.EvaluateAnalysis(context.Background(), label, a) })
	lm.counts["watch.alerts"] = float64(wr.Alerts)

	lm.alloc["faers"] = append(lm.alloc["faers"], float64(a1-a0)/mib)
	lm.alloc["store"] = append(lm.alloc["store"], float64(a3-a2)/mib)
	runAlloc := float64(a2-a1) / mib

	// The same pipeline, layer by layer.
	reports := q.Reports()
	opts := mineOptions()
	comp := rec.reserve()
	compStart := time.Now()
	layerAlloc := map[string]float64{}
	step := func(name, layer string, fn func()) {
		before := totalAlloc()
		rec.timed(name, comp, req, fn)
		layerAlloc[layer] += float64(totalAlloc()-before) / mib
	}
	var (
		db       *txdb.DB
		frequent []fpgrowth.FrequentSet
		closed   []fpgrowth.FrequentSet
		targets  []assoc.Rule
		clusters []mcac.Cluster
		ranked   []rank.Ranked
	)
	step("core.EncodeReports", "txdb", func() { db, _, err = core.EncodeReports(reports, opts) })
	if err != nil {
		return err
	}
	step("fpgrowth.Mine", "fpgrowth", func() {
		frequent = fpgrowth.Mine(db, fpgrowth.Options{MinSupport: opts.MinSupport, MaxLen: opts.MaxItems})
	})
	step("fpgrowth.FilterClosed", "fpgrowth", func() { closed = fpgrowth.FilterClosed(frequent) })
	step("assoc.FromItemsets", "assoc", func() {
		targets = assoc.FromItemsets(db, closed, assoc.GenOptions{MinDrugs: opts.MinDrugs, MaxDrugs: opts.MaxDrugs})
	})
	step("mcac.BuildAll", "mcac", func() { clusters = mcac.BuildAll(db, targets) })
	step("rank.Rank", "rank", func() {
		ranked = rank.Rank(clusters, opts.Method, rank.Options{Theta: opts.Theta, Decay: opts.Decay})
	})
	rec.finish(comp, "composed", 0, req, compStart, time.Now())

	// Cleaning on its own, on the input EncodeReports cleans, so the
	// encode step's share of EncodeReports can be separated.
	input := cleaningInput(reports, opts)
	before := totalAlloc()
	rec.timed("cleaning.Clean", 0, req, func() { cleaning.Clean(input, opts.Cleaning) })
	cleanAlloc := float64(totalAlloc()-before) / mib
	lm.alloc["cleaning"] = append(lm.alloc["cleaning"], cleanAlloc)
	layerAlloc["txdb"] -= cleanAlloc

	composedAlloc := cleanAlloc
	for layer, v := range layerAlloc {
		lm.alloc[layer] = append(lm.alloc[layer], v)
		composedAlloc += v
	}
	lm.alloc["core"] = append(lm.alloc["core"], runAlloc-composedAlloc)

	dict := db.Dict()
	sigs := make([]rankedSignal, len(ranked))
	contexts := 0
	for i, r := range ranked {
		c := r.Cluster
		sigs[i] = rankedSignal{
			Rank: i + 1, Drugs: dict.SortedNames(c.Target.Antecedent), Reactions: dict.SortedNames(c.Target.Consequent),
			Support: c.Target.Support, Score: r.Score,
		}
		contexts += 1<<len(c.Target.Antecedent) - 2
	}
	if fp := fingerprint(sigs); fp != want {
		res.problem("round %d: layer-by-layer pipeline fingerprint %s differs from core.Run's %s", req, fp, want)
	}
	if fp := fingerprint(signalsOf(a)); fp != want {
		res.problem("round %d: traced core.Run fingerprint %s differs from the untraced %s", req, fp, want)
	}
	lm.counts["fpgrowth.frequent_itemsets"] = float64(len(frequent))
	lm.counts["fpgrowth.closed_itemsets"] = float64(len(closed))
	lm.counts["assoc.rules"] = float64(len(targets))
	lm.counts["mcac.clusters"] = float64(len(clusters))
	lm.counts["mcac.context_rules"] = float64(contexts)
	return nil
}

// report turns the traced rounds into per-layer metrics and makes two
// checks. The composed layers may not take longer than the
// core.RunQuarter that runs them plus its link stage: a negative
// residual beyond the tolerance means the composed pass does more work
// than the program, or times it wrongly. And the traced user path must
// take as long as the untraced one: its layers plus the residual add
// up to the traced load, RunQuarter and WriteFile, so this check
// compares traced with untraced timing, not one layer with another.
func (lm *layerSamples) report(res *result, mineS float64) {
	byName := selfByName(res.Spans)
	sec := func(name string) float64 { return median(byName[name]) / 1000 }
	composed := 0.0
	for _, st := range composedStages {
		v := sec(st.span)
		res.Metrics[st.metric] = v
		composed += v
	}
	clean := sec("cleaning.Clean")
	res.Metrics["cleaning.clean_s"] = clean
	res.Metrics["txdb.encode_s"] -= clean
	res.Metrics["faers.load_s"] = sec("faers.LoadQuarter")
	runQ := sec("core.RunQuarter")
	res.Metrics["core.residual_s"] = runQ - composed
	encode := sec("store.Write")
	res.Metrics["store.encode_s"] = encode
	res.Metrics["store.write_s"] = sec("store.WriteFile") - encode
	res.Metrics["watch.eval_ms"] = median(byName["watch.EvaluateAnalysis"])
	for layer, v := range lm.alloc {
		res.Metrics[layer+".alloc_mb"] = median(v)
	}
	for name, v := range lm.counts {
		res.Metrics[name] = v
	}
	res.Detail["layer_sum_tolerance"] = layerSumTolerance

	composedRatio := composed / runQ
	res.Metrics["core.composed_ratio"] = composedRatio
	if composedRatio > 1+layerSumTolerance {
		res.problem("composed mining layers take %.3fs, %.1f%% of core.RunQuarter's %.3fs (at most %.0f%%): core.residual_s is %.3fs",
			composed, 100*composedRatio, runQ, 100*(1+layerSumTolerance), runQ-composed)
	}

	sum := res.Metrics["faers.load_s"] + composed + res.Metrics["core.residual_s"] +
		res.Metrics["store.encode_s"] + res.Metrics["store.write_s"]
	ratio := sum / mineS
	res.Metrics["core.layer_sum_ratio"] = ratio
	res.Metrics["trace.overhead_ratio"] = median(durByName(res.Spans)["mine_quarter"]) / 1000 / mineS
	if ratio < 1-layerSumTolerance || ratio > 1+layerSumTolerance {
		res.problem("mining layers sum to %.3fs, %.1f%% of mine_s %.3fs (tolerance ±%.0f%%)",
			sum, 100*ratio, mineS, 100*layerSumTolerance)
	}
}

// layerSumTolerance bounds both checks in report: how far the
// composed layers may exceed core.RunQuarter, and how far the traced
// path may stray from the untraced mine_s.
const layerSumTolerance = 0.10
