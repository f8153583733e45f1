package obs

import (
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Phase names mirror faults.Phase (obs cannot import faults — the
// dependency points the other way). The engine records one histogram
// observation per phase per analyzed module.
var phaseNames = []string{"generate", "parse", "typecheck", "infer", "solve", "qual",
	"confine.plant", "confine.infer", "confine.solve"}

// Mode names mirror the service analysis modes.
var modeNames = []string{"check", "infer", "confine", "qual"}

// Failure kinds mirror faults.Kind.
var failureKinds = []string{"panic", "timeout", "error"}

// Incremental dispositions mirror the service's X-Lna-Incremental
// header values: "cold" (no component reused), "partial" (some
// components replayed, some solved), "full" (every component
// replayed).
var incrementalDispositions = []string{"cold", "partial", "full"}

// AppMetrics is the toolkit's process-wide metric set, registered
// once in the Default registry. Hot paths hold the typed handles
// directly, so recording is an atomic add — no map lookup, no lock.
type AppMetrics struct {
	// Solver work counters, accumulated once per solve from the
	// per-solve Stats block (not per propagation step — the drain loop
	// stays untouched).
	SolveTotal                *Counter
	SolveAtomsPropagated      *Counter
	SolveIntersectionArrivals *Counter
	SolveCondFirings          *Counter
	SolveUnifications         *Counter
	SolveRecanonicalizations  *Counter

	// Partitioned-solver accounting, recorded once per memoized solve
	// (whole-graph solves don't touch these). SolveComponentSize abuses
	// the duration-based histogram for a unitless quantity: buckets
	// are powers of two of "component size" (variables + intersection
	// nodes + conditionals), rendered as nanosecond bounds.
	SolveComponents    *Counter
	SolveComponentSize *Histogram

	// Component-summary memo accounting (the solver's incremental
	// layer, see solve.Memo): probes that found a reusable component
	// solution, probes that didn't, and LRU evictions.
	SolveMemoHits      *Counter
	SolveMemoMisses    *Counter
	SolveMemoEvictions *Counter

	// Engine accounting: requests by analysis mode, contained
	// failures by kind, and the end-to-end latency distribution.
	requestsByMode map[string]*Counter
	failuresByKind map[string]*Counter
	AnalyzeSeconds *Histogram

	// Per-phase latency distributions (parse/typecheck/infer/solve/…).
	phaseSeconds map[string]*Histogram

	// Result-cache accounting (mirrors the cache's own counters so
	// scrapers see them without a /v1/stats round trip).
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheEvictions *Counter

	// Incremental-engine accounting: analysis requests by how much
	// prior work they reused (see service's X-Lna-Incremental header
	// for the disposition vocabulary).
	incrementalByDisposition map[string]*Counter
}

var (
	appOnce sync.Once
	app     *AppMetrics
)

// App returns the process-wide metric set, registering it in the
// Default registry on first use.
func App() *AppMetrics {
	appOnce.Do(func() {
		r := Default()
		a := &AppMetrics{
			SolveTotal:                r.Counter("lna_solve_total", "Constraint systems solved."),
			SolveAtomsPropagated:      r.Counter("lna_solve_atoms_propagated_total", "Successful solution-set insertions."),
			SolveIntersectionArrivals: r.Counter("lna_solve_intersection_arrivals_total", "Atoms arriving at intersection nodes."),
			SolveCondFirings:          r.Counter("lna_solve_cond_firings_total", "Conditional constraints fired."),
			SolveUnifications:         r.Counter("lna_solve_unifications_total", "Location unifications observed while solving."),
			SolveRecanonicalizations:  r.Counter("lna_solve_recanonicalizations_total", "Incremental re-canonicalization passes."),
			SolveComponents:           r.Counter("lna_solve_components_total", "Connected components solved by partitioned solves."),
			SolveComponentSize:        r.Histogram("lna_solve_component_size", "Partition component sizes (vars+inodes+conds; unitless power-of-two buckets).", componentSizeBounds),
			SolveMemoHits:             r.Counter("lna_solve_memo_hits_total", "Component-summary memo hits."),
			SolveMemoMisses:           r.Counter("lna_solve_memo_misses_total", "Component-summary memo misses."),
			SolveMemoEvictions:        r.Counter("lna_solve_memo_evictions_total", "Component-summary memo LRU evictions."),
			AnalyzeSeconds:            r.Histogram("lna_analyze_seconds", "End-to-end per-module analysis latency.", nil),
			requestsByMode:            make(map[string]*Counter, len(modeNames)),
			failuresByKind:            make(map[string]*Counter, len(failureKinds)),
			phaseSeconds:              make(map[string]*Histogram, len(phaseNames)),
			incrementalByDisposition:  make(map[string]*Counter, len(incrementalDispositions)),
			CacheHits:                 r.Counter("lna_cache_hits_total", "Result-cache hits."),
			CacheMisses:               r.Counter("lna_cache_misses_total", "Result-cache misses."),
			CacheEvictions:            r.Counter("lna_cache_evictions_total", "Result-cache LRU evictions."),
		}
		for _, m := range modeNames {
			a.requestsByMode[m] = r.Counter("lna_requests_total", "Analysis requests by mode.", "mode", m)
		}
		for _, k := range failureKinds {
			a.failuresByKind[k] = r.Counter("lna_request_failures_total", "Contained per-module failures by kind.", "kind", k)
		}
		for _, p := range phaseNames {
			a.phaseSeconds[p] = r.Histogram("lna_phase_seconds", "Per-phase analysis latency.", nil, "phase", p)
		}
		for _, d := range incrementalDispositions {
			a.incrementalByDisposition[d] = r.Counter("lna_incremental_requests_total", "Incremental analysis requests by reuse disposition.", "disposition", d)
		}
		app = a
	})
	return app
}

// Requests returns the request counter for an analysis mode (nil, and
// therefore a no-op, for unknown modes).
func (a *AppMetrics) Requests(mode string) *Counter { return a.requestsByMode[mode] }

// Failures returns the contained-failure counter for a faults kind.
func (a *AppMetrics) Failures(kind string) *Counter { return a.failuresByKind[kind] }

// Phase returns the latency histogram for a pipeline phase.
func (a *AppMetrics) Phase(phase string) *Histogram { return a.phaseSeconds[phase] }

// Incremental returns the request counter for a reuse disposition
// (nil, and therefore a no-op, for unknown dispositions).
func (a *AppMetrics) Incremental(disposition string) *Counter {
	return a.incrementalByDisposition[disposition]
}

// RecordSolve folds one solve's work counters into the global
// registry: a handful of atomic adds, called once per solve so the
// propagation loop itself carries no instrumentation.
func (a *AppMetrics) RecordSolve(atomsPropagated, intersectionArrivals, condFirings, unifications, recanons int) {
	a.SolveTotal.Inc()
	a.SolveAtomsPropagated.Add(uint64(atomsPropagated))
	a.SolveIntersectionArrivals.Add(uint64(intersectionArrivals))
	a.SolveCondFirings.Add(uint64(condFirings))
	a.SolveUnifications.Add(uint64(unifications))
	a.SolveRecanonicalizations.Add(uint64(recanons))
}

// componentSizeBounds are power-of-two "sizes" for the component-size
// histogram (the histogram machinery is duration-typed; these are
// unitless counts).
var componentSizeBounds = []time.Duration{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20,
}

// RecordSolvePartition records one partitioned solve: the size of
// each component.
func (a *AppMetrics) RecordSolvePartition(componentSizes []int) {
	a.SolveComponents.Add(uint64(len(componentSizes)))
	for _, s := range componentSizes {
		a.SolveComponentSize.Observe(time.Duration(s))
	}
}

// RecordPhase records one phase's elapsed wall clock (no-op for
// phases outside the known set).
func (a *AppMetrics) RecordPhase(phase string, d time.Duration) {
	a.phaseSeconds[phase].Observe(d)
}

// ---------------------------------------------------------------------
// Debug handler (pprof + metrics)

// DebugHandler returns the handler served on the opt-in -debug-addr
// listener: the net/http/pprof suite under /debug/pprof/ and the
// Default registry under /metrics (Prometheus text). It is kept off
// the main service listener so profiling endpoints are never exposed
// on the address that serves analysis traffic.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default().WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("lna debug listener: /debug/pprof/ and /metrics\n"))
	})
	return mux
}
