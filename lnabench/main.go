// Command lnabench is the repository's single benchmark: one process
// that runs one of three workloads against the analysis stack, checks
// every answer against an oracle, and prints every metric by name with
// its unit.
//
//	lnabench --workload corpus_batch|serve_edits|fleet_xmodule \
//	         --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// but the workload running. With --trace 1 it measures the per-layer
// ledger instead: an untraced arm, then a traced arm that times each
// layer from outside by calling the layer's public functions around
// the requests and reading what the program already emits (response
// headers, the JSON access log, /v1/metrics).
//
// Human-readable report lines go to stdout first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workload is one traffic shape. run measures for cfg.seconds and
// reports what it saw; it returns an error only when the run could not
// be carried out at all (set-up failure), never for wrong answers,
// which are counted in the outcome.
type workload struct {
	name string
	// why says what the workload stands for and which BENCH_*.json
	// scenarios it supersedes; BENCHMARK.json carries the same line.
	why string
	// rate is the fixed offered rate (requests/s) of an open-loop
	// workload; 0 for the closed-loop batch workload.
	rate float64
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{
		name: "corpus_batch",
		why:  "Section 7 batch pass: all 589 modules straight to AnalyzeBounded, no cache, memo or HTTP; loads front end, solver, confine and GC. Supersedes BENCH_solver CorpusSummary and BENCH_obs.",
		run:  runCorpusBatch,
	},
	{
		name: "serve_edits",
		why:  "IDE/CI traffic to one lna serve daemon: cold, then hit, one-function edit and re-save in assumed equal thirds; loads byte cache, memo, funcidx, decode, marshal. Supersedes BENCH_incremental.",
		rate: serveEditsRate,
		run:  runServeEdits,
	},
	{
		name: "fleet_xmodule",
		why:  "multi_module qual via a gateway over two replicas: leaf edits run modgraph on the DAG, resubmits (assumed 7 per 3 edits) test affinity and relay. Supersedes BENCH_gateway, BENCH_xmodule, BENCH_trace.",
		rate: fleetRate,
		run:  runFleetXmodule,
	},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// duration is the measured span of one run (the traced run splits it
// between its two arms).
func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what one run observed.
type outcome struct {
	mu        sync.Mutex // guards problems and nproblems
	attempted int
	failed    int
	// problems are oracle failures, kept for the report (capped).
	problems  []string
	nproblems int
	metrics   map[string]float64
	// info is the report's free-form context: sample counts behind
	// percentiles, per-class figures, environment.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

// problem records one oracle failure.
func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nproblems++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.nproblems == 0 && o.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var name string
	var traceFlag int
	flag.StringVar(&name, "workload", "", "workload name (corpus_batch|serve_edits|fleet_xmodule)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "lnabench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	w, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lnabench: unknown workload %q\n", name)
		os.Exit(2)
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lnabench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := render(os.Stdout, w, cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lnabench: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(line)
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// render writes the report lines to rep and returns the final result
// line. Every metric of the run's set must be present: a missing one
// is a benchmark bug, not a measurement.
func render(rep io.Writer, w workload, cfg config, out *outcome) ([]byte, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %q was not measured", w.name, d.name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Only failed requests push a percentile to +Inf, and
			// they already make the run incorrect; JSON has no Inf.
			fmt.Fprintf(rep, "metric %s is %v: reported as 0\n", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	env := map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit(),
		"offered_rps": w.rate,
	}
	fmt.Fprintf(rep, "lnabench %s seed=%d seconds=%g trace=%t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	printJSON(rep, "env", env)
	if out.attempted > 0 {
		out.info["fail_share"] = float64(out.failed) / float64(out.attempted)
	}
	printJSON(rep, "info", out.info)
	for _, p := range out.problems {
		fmt.Fprintf(rep, "oracle: %s\n", p)
	}
	if out.nproblems > len(out.problems) {
		fmt.Fprintf(rep, "oracle: ... %d more\n", out.nproblems-len(out.problems))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(rep, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func printJSON(w io.Writer, label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s: %s\n", label, data)
}

// commit identifies the code under measurement: LNA_COMMIT, which the
// launcher sets, else "unknown".
func commit() string {
	if c := os.Getenv("LNA_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
