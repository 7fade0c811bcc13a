// Command perfbench is pharmaverify's end-to-end benchmark. It runs one
// seeded workload per invocation:
//
//	cold-stream  single-domain verifies of never-seen domains
//	hot-zipf     Zipf-skewed repeat verifies over a warmed cache
//	rank-study   ranking studies (crawl, train, RankCV)
//
// The serving workloads drive the real daemon handler over a loopback
// listener: a closed loop with one caller times the latencies, an open
// loop at the rates of a fixed ladder finds the highest rate that meets
// the latency limit. rank-study calls the offline core/ngram/trust entry
// points directly, in a closed loop with one caller. Every run checks its outputs and prints one line per metric,
// a JSON report with the host and the per-step counts, and, as the last
// line of standard output, the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced from outside the program (handler spans, a
// span-recording fetcher, /metrics differences, a public-call replay of
// the ranking study) and the metrics are the per-layer ones.
// WORKLOADS.md explains the workloads and the method.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number: its value, unit and the number of
// samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// runResult is everything one run reports.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Problems lists the first maxProblems failed correctness checks;
	// Dropped counts the rest.
	Problems []string
	Dropped  int
	// Report is free-form detail (host, steps, spans file) for the
	// report line.
	Report map[string]any
}

func (r *runResult) add(name string, value float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unitOf(name), N: n})
}

const maxProblems = 20

func (r *runResult) problem(format string, args ...any) {
	if len(r.Problems) == maxProblems {
		r.Dropped++
		return
	}
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// options are the benchmark's command-line arguments.
type options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Spans    string
}

// Metric names with their units, in the order they are printed. The
// traced run reports perLayer, every other run endToEnd; each workload
// reports all of them, 0 where a layer is idle by construction.
var (
	endToEnd = []string{"setup_s", "p50_ms", "p99_ms", "slo_rps", "ok_ratio", "accuracy", "study_s", "pairord", "heap_mb"}
	// The per-layer metrics fall into the serving layers, the ranking
	// study's layers and the load generator's own.
	servingLayers = []string{
		"trust.refreshes_per_crawl", "trust.refresh_ms", "trust.refresh_busy_s", "trust.graph_nodes", "trust.graph_edges",
		"crawler.crawls", "crawler.crawl_ms", "crawler.fetches", "crawler.fetch_us", "crawler.useful_ratio",
		"textproc.preprocess_ms", "serve.source_text_us",
		"serve.cache_hit_ratio", "serve.cache_evictions", "serve.self_us", "serve.queue_rejections", "serve.dedup_ratio",
		"serve.source_network_us", "serve.source_registry_us", "request.residual_us",
	}
	studyLayers = []string{
		"dataset.build_s", "ngram.build_s", "ngram.merge_s", "ngram.compare_s", "ngram.doc_edges", "ngram.class_edges",
		"vectorize.dataset_s", "ml.fit_s", "ml.prob_s", "trust.trustrank_s", "featcache.hit_ratio", "study.residual_s",
	}
	loadgenLayers = []string{"loadgen.lag_ms", "loadgen.backlog"}
	perLayer      = concat(servingLayers, studyLayers, loadgenLayers, []string{"trace.overhead_pct"})
)

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// unitOf gives a metric's unit, read off its name's suffix.
func unitOf(name string) string {
	switch {
	case name == "slo_rps":
		return "1/s"
	case name == "heap_mb":
		return "MB"
	case name == "accuracy", name == "pairord", name == "trust.refreshes_per_crawl", strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects metric names outside the result format's alphabet
// and duplicates.
func checkNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) {
			return fmt.Errorf("metric name %q: want 1-64 of letters, digits, '_', '.', '-', starting with a letter or digit", n)
		}
		if seen[n] {
			return fmt.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "", "cold-stream, hot-zipf or rank-study")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.Seconds, "seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.Spans, "spans", "", "traced runs: write the recorded spans as JSON lines to this file")
	flag.Parse()
	o.Trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fail(errors.New("-trace must be 0 or 1"))
	}
	if o.Seconds < 1 {
		fail(errors.New("-seconds must be at least 1"))
	}
	// The whole process — load generator and server alike — gets one P
	// per CPU the scheduler may use, so runs on hosts with different
	// core counts are comparable by their recorded num_cpu.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx := context.Background()
	var (
		r   *runResult
		err error
	)
	switch o.Workload {
	case "cold-stream", "hot-zipf":
		r, err = runServing(ctx, servingSpecs[o.Workload], o)
	case "rank-study":
		r, err = runStudy(ctx, o)
	default:
		err = fmt.Errorf("unknown -workload %q (want cold-stream, hot-zipf or rank-study)", o.Workload)
	}
	if err != nil {
		fail(err)
	}
	want := endToEnd
	if o.Trace {
		want = perLayer
	}
	if err := emit(os.Stdout, o, r, want); err != nil {
		fail(err)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// host records what the numbers were measured on.
func host(o options) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       o.Seed,
		"seconds":    o.Seconds,
		"workload":   o.Workload,
		"traced":     o.Trace,
	}
}

// emit prints one line per metric, the report line and, last, the
// result object. It fails if the run did not produce exactly the
// metrics named in want.
func emit(w io.Writer, o options, r *runResult, want []string) error {
	if err := checkNames(want); err != nil {
		return err
	}
	got := map[string]metric{}
	for _, m := range r.Metrics {
		if _, dup := got[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	if len(got) != len(want) {
		return fmt.Errorf("run reported %d metrics, want %d", len(got), len(want))
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		fmt.Fprintf(w, "metric %-26s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		out[name] = jm{Value: m.Value, Unit: m.Unit}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, "check failed: %d more\n", r.Dropped)
	}
	if r.Report == nil {
		r.Report = map[string]any{}
	}
	r.Report["host"] = host(o)
	rep, err := json.Marshal(r.Report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", rep)
	res, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := seconds(ds)
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// heapMB forces a collection and returns the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
