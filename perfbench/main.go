// Command perfbench is the repository benchmark. It measures the two
// paths MARAS users wait on: the mining path (FAERS quarter files on
// disk to a snapshot on disk), driven in-process through the mining
// layers' exported functions, and the serving path, driven over
// loopback HTTP against a maras-server -store subprocess built from
// the same tree. See BENCHMARK.json at the repository root for the
// workloads and metrics, and METRICS.md next to this file for which
// end-to-end metric each per-layer metric should move.
//
// Usage (from the repository root; run.sh builds and then runs it):
//
//	perfbench -workload mine_quarter|browse_hot -seed N
//	          -seconds S -trace 0|1 -server-bin PATH
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// describe the host and the run. The full record (host, metrics,
// sample counts, checks) goes to .bench_build/perfbench/results/ and,
// for traced runs, the spans to .bench_build/perfbench/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// runConfig is one invocation's parameters.
type runConfig struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	workDir   string // scratch space for this run, removed at exit
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload measured. Problems are failed
// correctness checks; any makes the run incorrect.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Detail    map[string]any
	Problems  []string
	Spans     []span
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Detail: map[string]any{}}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*result, error){
	"mine_quarter": runMineQuarter,
	"browse_hot":   runBrowseHot,
}

func main() {
	var (
		workload  = flag.String("workload", "", "mine_quarter or browse_hot")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 55, "measurement time per run")
		trace     = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		serverBin = flag.String("server-bin", "", "maras-server binary built from this tree")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload mine_quarter|browse_hot, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		serverBin: *serverBin,
	}
	if err := os.MkdirAll(filepath.Join(outDir, "work"), 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "work"), cfg.workload+"-")
	if err != nil {
		fail(err)
	}
	cfg.workDir = dir
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	if err := report(cfg, res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report writes the full record and prints the result line. The run
// reports exactly the metric set of its mode; a metric the workload
// does not exercise (a route it never requests, a mining layer in a
// serving workload) is reported as 0 and listed as not applicable.
func report(cfg runConfig, res *result) error {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	metrics := make(map[string]metric, len(specs))
	var notApplicable []string
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			notApplicable = append(notApplicable, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("%s measured as %v", s.Name, v)
			v = 0
		} else if !cfg.trace && v <= 0 {
			// Every end-to-end metric measures something that is there.
			res.problem("%s measured as %v", s.Name, v)
		}
		metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	sort.Strings(notApplicable)
	host := hostInfo()
	tag := cfg.workload + "-s" + strconv.FormatInt(cfg.seed, 10) + "-t" + map[bool]string{false: "0", true: "1"}[cfg.trace]
	if cfg.trace {
		path := filepath.Join(outDir, "spans", tag+".jsonl")
		if err := writeSpans(path, res.Spans); err != nil {
			return err
		}
		res.Detail["span_file"] = path
		res.Detail["spans"] = len(res.Spans)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, metrics}
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"host": host, "result": out, "detail": res.Detail, "problems": res.Problems,
		"not_applicable": notApplicable,
	}
	if err := writeJSON(filepath.Join(outDir, "results", tag+".json"), record); err != nil {
		return err
	}
	hostLine, _ := json.Marshal(host)
	fmt.Println("host:", string(hostLine))
	for _, p := range res.Problems {
		fmt.Println("check failed:", p)
	}
	if len(notApplicable) > 0 {
		fmt.Printf("not applicable to %s (reported as 0): %d metrics\n", cfg.workload, len(notApplicable))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
