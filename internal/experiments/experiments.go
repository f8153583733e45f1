// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) over the synthetic driver corpus:
//
//	E1: the summary counts (589 modules; 352 error-free; 85 with
//	    errors unrelated to strong updates; 152 where strong updates
//	    matter, 138 of them fully recovered; 3,277 potential vs
//	    3,116 eliminated spurious errors, 95%).
//	E2: Figure 6, the histogram of spurious type errors eliminated
//	    per module.
//	E3: Figure 7, the per-module table for the 14 modules where
//	    confine inference does not recover every strong update.
//	E4: the timing comparison (analysis with vs without confine
//	    inference on the largest confine-relevant module, ide_tape;
//	    the paper measured 28.5s vs 26.0s).
//
// Every number is measured by running the real pipeline; the corpus
// generator only controls the mix of locking patterns.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/confine"
	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/service"
	"localalias/internal/solve"
)

// ModuleResult is the measurement for one module.
type ModuleResult struct {
	Spec     *drivergen.ModuleSpec
	Measured drivergen.Triple
	// Response is the canonical service-layer result the measurement
	// was read from — the same shape `lna check -json` and the daemon
	// emit, so per-module corpus results can ship over the wire
	// unchanged.
	Response *service.AnalyzeResponse
	// Planted/Kept count confine? candidates inserted and retained.
	Planted, Kept int
	// AnalyzeTime covers the module end to end (generation through
	// qualifier analysis).
	AnalyzeTime time.Duration
	// SolveStats aggregates the solver work counters over the
	// module's two solves.
	SolveStats solve.Stats
	// Err is non-nil if the module failed to compile or analyze.
	Err error
	// Failure is the structured record when the module's analysis
	// panicked, timed out, or errored inside the containment guard
	// (Err aliases it then).
	Failure *core.ModuleFailure
	// PhaseTimings is the per-phase wall-clock breakdown
	// (generate/parse/typecheck/infer/solve/qual).
	PhaseTimings []faults.PhaseTiming
	// TraceID identifies this module's span trace when the corpus ran
	// with CorpusOptions.Traced ("" otherwise).
	TraceID string
	// Trace holds the collected spans when Traced (nil otherwise).
	Trace *obs.Trace
}

// Potential is the number of spurious errors strong updates could
// eliminate in this module.
func (m *ModuleResult) Potential() int {
	return m.Measured.NoConfine - m.Measured.AllStrong
}

// Eliminated is the number confine inference actually eliminated.
func (m *ModuleResult) Eliminated() int {
	return m.Measured.NoConfine - m.Measured.Confine
}

// CorpusResult aggregates the whole experiment.
type CorpusResult struct {
	Modules []*ModuleResult

	// The Section 7 breakdown, measured.
	Clean         int // no errors in any mode
	ErrorsNoHelp  int // errors, but all-strong changes nothing
	StrongMatters int // all-strong removes some errors
	FullyRecov    int // confine matches all-strong
	PartialRecov  int // confine between baseline and all-strong

	Potential  int
	Eliminated int

	// Mismatches counts modules whose measured triple differs from
	// the generator's expectation (0 in a healthy build).
	Mismatches int

	// Failed and TimedOut count modules whose analysis was contained
	// by the fault guard (panic or error, and deadline expiry,
	// respectively); Failures holds their records in corpus order.
	// The rest of the corpus completes regardless — a degraded run,
	// not a crashed one.
	Failed   int
	TimedOut int
	Failures []*core.ModuleFailure

	// SolveStats aggregates the solver work counters over the whole
	// corpus — a coarse regression canary for the constraint solver
	// (the counters are deterministic per module, so corpus totals are
	// reproducible too).
	SolveStats solve.Stats
}

// EliminationRate is the headline 95% number.
func (r *CorpusResult) EliminationRate() float64 {
	if r.Potential == 0 {
		return 0
	}
	return float64(r.Eliminated) / float64(r.Potential)
}

// Analyzed is the number of modules that completed analysis (whether
// or not their numbers matched expectations).
func (r *CorpusResult) Analyzed() int {
	return len(r.Modules) - r.Failed - r.TimedOut
}

// Degraded reports whether any module failed or timed out — the run
// completed, but its numbers cover only the surviving modules.
func (r *CorpusResult) Degraded() bool { return r.Failed+r.TimedOut > 0 }

// PhaseFailures breaks the failures down by pipeline phase.
func (r *CorpusResult) PhaseFailures() map[faults.Phase]int {
	if len(r.Failures) == 0 {
		return nil
	}
	out := make(map[faults.Phase]int)
	for _, f := range r.Failures {
		out[f.Phase]++
	}
	return out
}

// testFaultHook, when non-nil, runs at the start of each module's
// guarded analysis. It is the seam fault-injection tests use to make
// a chosen module panic or stall without touching the real pipeline.
var testFaultHook func(ctx context.Context, spec *drivergen.ModuleSpec)

// analyzeSpec measures one module through the shared service engine:
// a panic anywhere in generation, loading, or analysis becomes a
// structured ModuleFailure, and timeout (when non-zero) bounds the
// module's wall-clock time so one pathological constraint system
// cannot stall a worker. The corpus driver, the lna subcommands, and
// the `lna serve` daemon therefore measure exactly the same pipeline.
func analyzeSpec(ctx context.Context, spec *drivergen.ModuleSpec, timeout time.Duration, traced bool) *ModuleResult {
	out := &ModuleResult{Spec: spec}
	req := &service.AnalyzeRequest{
		Module:  spec.Name + ".mc",
		Options: service.AnalyzeOptions{Mode: service.ModeQual},
		// Source generation runs inside the fault guard (attributed to
		// the generate phase), with the fault-injection seam in front.
		Generate: func(ctx context.Context) string {
			if testFaultHook != nil {
				testFaultHook(ctx, spec)
			}
			return spec.Source()
		},
	}
	if traced {
		req.Obs = obs.NewTrace(spec.Name)
		out.Trace = req.Obs
		out.TraceID = req.Obs.ID()
	}
	resp := service.AnalyzeBounded(ctx, req, timeout)
	out.Response = resp
	out.PhaseTimings = resp.PhaseTimings
	out.AnalyzeTime = resp.Elapsed
	if resp.Failure == nil && resp.Locking == nil {
		// The generated source failed to parse or type check —
		// impossible in a healthy generator, so degrade it like any
		// other contained failure rather than treating the module as
		// silently analyzed.
		msg := "module produced no locking report"
		if resp.Raw != nil && resp.Raw.HasErrors() {
			msg = resp.Raw.Err().Error()
		}
		resp.Failure = &faults.ModuleFailure{
			Module: spec.Name, Phase: faults.PhaseTypecheck,
			Kind: faults.KindError, Message: msg, Elapsed: resp.Elapsed,
		}
	}
	if resp.Failure != nil {
		// Corpus failure reports identify modules by spec name (no .mc
		// suffix), as the degraded-run summaries always have.
		resp.Failure.Module = spec.Name
		out.Failure = resp.Failure
		out.Err = resp.Failure
		return out
	}
	out.Measured = drivergen.Triple{
		NoConfine: resp.Locking.NoConfine.NumErrors,
		Confine:   resp.Locking.WithConfine.NumErrors,
		AllStrong: resp.Locking.AllStrong.NumErrors,
	}
	out.Planted = resp.Locking.Planted
	out.Kept = resp.Locking.Kept
	out.SolveStats = resp.Diagnostics.Stats
	return out
}

// CorpusOptions configures a corpus run: what to analyze, where to
// report progress, and the fault-containment policy.
type CorpusOptions struct {
	// Specs is the corpus to analyze (pass drivergen.Corpus() for the
	// full experiment).
	Specs []*drivergen.ModuleSpec
	// Progress, when non-nil, receives progress lines, including a
	// final "589/589" flush.
	Progress io.Writer
	// ModuleTimeout bounds each module's end-to-end analysis
	// (generation through qualifier analysis). Zero means no
	// per-module deadline. A module that exceeds it is reported as
	// timed out and the run continues.
	ModuleTimeout time.Duration
	// Traced attaches a span trace (with a unique trace ID) to every
	// module's request. Off by default: the corpus benchmark compares
	// this path against the traced one to bound tracing overhead.
	Traced bool
}

// RunCorpus analyzes opts.Specs on a fixed pool of one worker per
// CPU. Workers pull the next module off a shared atomic counter, so
// the scheduler never sees more than NumCPU analysis goroutines at
// once. Each module runs under a fault-containment guard: a panic or
// deadline expiry fails that module (recorded in the result's
// Failures) while the rest of the corpus completes — the paper's
// 589-driver sweep degrades instead of crashing. Cancelling ctx stops
// workers between modules.
func RunCorpus(ctx context.Context, opts CorpusOptions) *CorpusResult {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, progress := opts.Specs, opts.Progress
	results := make([]*ModuleResult, len(specs))
	nw := runtime.NumCPU()
	if nw > len(specs) {
		nw = len(specs)
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				results[i] = analyzeSpec(ctx, specs[i], opts.ModuleTimeout, opts.Traced)
				if n := int(done.Add(1)); progress != nil && n%50 == 0 && n < len(specs) {
					fmt.Fprintf(progress, "  ...%d/%d modules\n", n, len(specs))
				}
			}
		}()
	}
	wg.Wait()
	if progress != nil && len(specs) > 0 {
		fmt.Fprintf(progress, "  ...%d/%d modules\n", len(specs), len(specs))
	}
	return aggregate(results)
}

func aggregate(results []*ModuleResult) *CorpusResult {
	r := &CorpusResult{Modules: results}
	for _, m := range results {
		if m == nil {
			continue // worker stopped by ctx cancellation before reaching it
		}
		if m.Failure != nil {
			if m.Failure.Kind == faults.KindTimeout {
				r.TimedOut++
			} else {
				r.Failed++
			}
			r.Failures = append(r.Failures, m.Failure)
			continue
		}
		if m.Err != nil {
			r.Mismatches++
			continue
		}
		if m.Measured != m.Spec.Expected {
			r.Mismatches++
		}
		t := m.Measured
		switch {
		case t.NoConfine == 0:
			r.Clean++
		case t.NoConfine == t.AllStrong:
			r.ErrorsNoHelp++
		default:
			r.StrongMatters++
			if t.Confine == t.AllStrong {
				r.FullyRecov++
			} else {
				r.PartialRecov++
			}
		}
		r.Potential += m.Potential()
		r.Eliminated += m.Eliminated()
		r.SolveStats.Add(m.SolveStats)
	}
	return r
}

// ---------------------------------------------------------------------
// Rendering

// Summary renders the E1 table with the paper's numbers alongside.
func (r *CorpusResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 7 summary (measured vs paper)\n")
	fmt.Fprintf(&b, "  %-46s %8s %8s\n", "", "measured", "paper")
	row := func(label string, got, paper int) {
		fmt.Fprintf(&b, "  %-46s %8d %8d\n", label, got, paper)
	}
	row("driver modules analyzed", len(r.Modules), 589)
	row("error-free without confine", r.Clean, 352)
	row("errors, but strong updates irrelevant", r.ErrorsNoHelp, 85)
	row("strong updates matter", r.StrongMatters, 152)
	row("  ... fully recovered by confine inference", r.FullyRecov, 138)
	row("  ... partially recovered (Figure 7 set)", r.PartialRecov, 14)
	row("potential spurious errors (weak updates)", r.Potential, 3277)
	row("eliminated by confine inference", r.Eliminated, 3116)
	fmt.Fprintf(&b, "  %-46s %7.1f%% %7.1f%%\n", "elimination rate",
		r.EliminationRate()*100, 95.1)
	if r.Mismatches > 0 {
		fmt.Fprintf(&b, "  WARNING: %d module(s) deviated from generator expectations\n", r.Mismatches)
	}
	if r.Degraded() {
		fmt.Fprintf(&b, "  DEGRADED RUN: %d analyzed, %d failed, %d timed out (counts above cover survivors only)\n",
			r.Analyzed(), r.Failed, r.TimedOut)
	}
	return b.String()
}

// PhaseStat is one row of the per-phase timing table: the number of
// modules that ran the phase and the distribution of their wall-clock
// times in it.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	Max   time.Duration `json:"max_ns"`
}

// PhaseStats computes the per-phase p50/p95/max over every surviving
// module's phase timings, in canonical pipeline order. Exact
// percentiles (nearest-rank over the sorted samples), not histogram
// estimates: the corpus driver holds every sample in memory anyway.
func (r *CorpusResult) PhaseStats() []PhaseStat {
	samples := make(map[faults.Phase][]time.Duration)
	for _, m := range r.Modules {
		if m == nil || m.Failure != nil {
			continue
		}
		for _, pt := range m.PhaseTimings {
			samples[pt.Phase] = append(samples[pt.Phase], pt.Elapsed)
		}
	}
	var out []PhaseStat
	for _, p := range faults.Phases() {
		ds := samples[p]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rank := func(q float64) time.Duration {
			i := int(q*float64(len(ds)) + 0.5)
			if i >= len(ds) {
				i = len(ds) - 1
			}
			return ds[i]
		}
		out = append(out, PhaseStat{
			Phase: string(p),
			Count: len(ds),
			P50:   rank(0.50),
			P95:   rank(0.95),
			Max:   ds[len(ds)-1],
		})
	}
	return out
}

// PhaseTable renders the per-phase timing distribution as a table —
// the corpus-level answer to "where does the pipeline spend its
// time". Empty when no module carried timings.
func (r *CorpusResult) PhaseTable() string {
	stats := r.PhaseStats()
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-phase timing over %d module(s)\n", r.Analyzed())
	fmt.Fprintf(&b, "  %-14s %8s %12s %12s %12s\n", "phase", "modules", "p50", "p95", "max")
	for _, s := range stats {
		fmt.Fprintf(&b, "  %-14s %8d %12v %12v %12v\n",
			s.Phase, s.Count,
			s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond),
			s.Max.Round(time.Microsecond))
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Degraded-run failure reporting

// SlowModule is one row of the slowest-modules table: total analysis
// time with its per-phase breakdown.
type SlowModule struct {
	Module  string               `json:"module"`
	Elapsed time.Duration        `json:"elapsed_ns"`
	Phases  []faults.PhaseTiming `json:"phases,omitempty"`
}

// FailureReport is the machine-readable summary of a (possibly
// degraded) corpus run: what failed, where, and which modules were
// slowest. It is what cmd/experiments -failures-json emits.
type FailureReport struct {
	Modules  int                   `json:"modules"`
	Analyzed int                   `json:"analyzed"`
	Failed   int                   `json:"failed"`
	TimedOut int                   `json:"timed_out"`
	ByPhase  map[string]int        `json:"by_phase,omitempty"`
	Failures []*core.ModuleFailure `json:"failures"`
	Slowest  []SlowModule          `json:"slowest,omitempty"`
}

// FailureReport builds the report, including the slowestN surviving
// modules by analysis time (with per-phase timings from the solver's
// trace).
func (r *CorpusResult) FailureReport(slowestN int) *FailureReport {
	rep := &FailureReport{
		Modules:  len(r.Modules),
		Analyzed: r.Analyzed(),
		Failed:   r.Failed,
		TimedOut: r.TimedOut,
		Failures: r.Failures,
	}
	if rep.Failures == nil {
		rep.Failures = []*core.ModuleFailure{} // render as [], not null
	}
	for p, n := range r.PhaseFailures() {
		if rep.ByPhase == nil {
			rep.ByPhase = make(map[string]int)
		}
		rep.ByPhase[string(p)] = n
	}
	var ok []*ModuleResult
	for _, m := range r.Modules {
		if m != nil && m.Failure == nil && m.Err == nil {
			ok = append(ok, m)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].AnalyzeTime != ok[j].AnalyzeTime {
			return ok[i].AnalyzeTime > ok[j].AnalyzeTime
		}
		return ok[i].Spec.Name < ok[j].Spec.Name
	})
	if slowestN > len(ok) {
		slowestN = len(ok)
	}
	for _, m := range ok[:slowestN] {
		rep.Slowest = append(rep.Slowest, SlowModule{
			Module:  m.Spec.Name,
			Elapsed: m.AnalyzeTime,
			Phases:  m.PhaseTimings,
		})
	}
	return rep
}

// FailuresJSON renders the failure report as indented JSON.
func (r *CorpusResult) FailuresJSON(slowestN int) ([]byte, error) {
	return json.MarshalIndent(r.FailureReport(slowestN), "", "  ")
}

// FailureSummary renders a human-readable degraded-run report: one
// line per failure and the slowest-modules table. Empty when the run
// was healthy.
func (r *CorpusResult) FailureSummary(slowestN int) string {
	if !r.Degraded() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "degraded run: %d/%d modules analyzed, %d failed, %d timed out\n",
		r.Analyzed(), len(r.Modules), r.Failed, r.TimedOut)
	byPhase := r.PhaseFailures()
	phases := make([]string, 0, len(byPhase))
	for p := range byPhase {
		phases = append(phases, string(p))
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(&b, "  phase %-14s %d failure(s)\n", p+":", byPhase[faults.Phase(p)])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s\n", f.Error())
	}
	rep := r.FailureReport(slowestN)
	if len(rep.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest surviving modules:\n")
		for _, s := range rep.Slowest {
			fmt.Fprintf(&b, "  %-16s %10v", s.Module, s.Elapsed.Round(time.Microsecond))
			for _, pt := range s.Phases {
				fmt.Fprintf(&b, "  %s=%v", pt.Phase, pt.Elapsed.Round(time.Microsecond))
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// Figure6 renders the histogram of spurious type errors eliminated
// per module (over the modules where strong updates matter).
func (r *CorpusResult) Figure6() string {
	const binWidth = 10
	bins := map[int]int{}
	maxBin := 0
	for _, m := range r.Modules {
		if m.Err != nil || m.Potential() == 0 {
			continue
		}
		bin := (m.Eliminated() - 1) / binWidth
		if m.Eliminated() == 0 {
			bin = -1 // modules where inference eliminated nothing
		}
		bins[bin]++
		if bin > maxBin {
			maxBin = bin
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: spurious type errors eliminated by confine inference\n")
	fmt.Fprintf(&b, "  %-12s %-7s\n", "eliminated", "modules")
	render := func(label string, n int) {
		fmt.Fprintf(&b, "  %-12s %4d  %s\n", label, n, strings.Repeat("#", n))
	}
	if n := bins[-1]; n > 0 {
		render("0", n)
	}
	for bin := 0; bin <= maxBin; bin++ {
		lo, hi := bin*binWidth+1, (bin+1)*binWidth
		render(fmt.Sprintf("%d-%d", lo, hi), bins[bin])
	}
	return b.String()
}

// Figure7 renders the per-module table for the partially recovered
// modules, with the paper's rows alongside.
func (r *CorpusResult) Figure7() string {
	paper := map[string]drivergen.Figure7Row{}
	for _, row := range drivergen.Figure7Paper() {
		paper[row.Name] = row
	}
	var rows []*ModuleResult
	for _, m := range r.Modules {
		if m.Spec.Category == drivergen.Partial {
			rows = append(rows, m)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].Spec.Name < rows[j].Spec.Name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: modules where confine inference misses strong updates\n")
	fmt.Fprintf(&b, "  %-16s | %25s | %25s\n", "", "measured", "paper")
	fmt.Fprintf(&b, "  %-16s | %7s %8s %8s | %7s %8s %8s\n",
		"module", "no-inf", "confine", "strong", "no-inf", "confine", "strong")
	for _, m := range rows {
		p := paper[m.Spec.Name]
		fmt.Fprintf(&b, "  %-16s | %7d %8d %8d | %7d %8d %8d\n",
			m.Spec.Name,
			m.Measured.NoConfine, m.Measured.Confine, m.Measured.AllStrong,
			p.NoConfine, p.Confine, p.AllStrong)
	}
	return b.String()
}

// CSV renders per-module results as CSV (module, category, no-confine,
// confine, all-strong, potential, eliminated, planted, kept) for
// external plotting of Figures 6 and 7.
func (r *CorpusResult) CSV() string {
	var b strings.Builder
	b.WriteString("module,category,no_confine,confine,all_strong,potential,eliminated,planted,kept\n")
	for _, m := range r.Modules {
		if m.Err != nil {
			continue
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d\n",
			m.Spec.Name, m.Spec.Category,
			m.Measured.NoConfine, m.Measured.Confine, m.Measured.AllStrong,
			m.Potential(), m.Eliminated(), m.Planted, m.Kept)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E4: confine-inference overhead timing

// TimingResult is the E4 measurement.
type TimingResult struct {
	Module        string
	WithConfine   time.Duration // full pipeline incl. confine inference
	WithoutCfine  time.Duration // baseline analysis only
	OverheadRatio float64
}

func (t *TimingResult) String() string {
	return fmt.Sprintf(
		"Timing (%s): with confine inference %v, without %v (ratio %.2fx; paper: 28.5s vs 26.0s = 1.10x)",
		t.Module, t.WithConfine.Round(time.Microsecond),
		t.WithoutCfine.Round(time.Microsecond), t.OverheadRatio)
}

// Timing measures the analysis of the named module (default ide_tape,
// as in the paper) with and without confine inference, averaged over
// rounds.
func Timing(moduleName string, rounds int) (*TimingResult, error) {
	if moduleName == "" {
		moduleName = "ide_tape"
	}
	if rounds <= 0 {
		rounds = 5
	}
	var spec *drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Name == moduleName {
			spec = m
			break
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("no module %q in the corpus", moduleName)
	}
	src := spec.Source()

	var withC, withoutC time.Duration
	for i := 0; i < rounds; i++ {
		// Without confine inference: plain inference + solve + the
		// flow-sensitive qualifier analysis (CQUAL's baseline run).
		mod, err := core.LoadModule(spec.Name+".mc", src)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{})
		sol := solve.Solve(res.Sys)
		qual.Analyze(res, sol, qual.ModePlain)
		withoutC += time.Since(t0)

		// With confine inference: plant candidates, infer with the
		// conditional constraints, solve, apply, and run the same
		// qualifier analysis once (re-load: inference mutates the
		// AST). This matches the paper's measurement, which compares
		// one CQUAL run with inference against one without.
		mod2, err := core.LoadModule(spec.Name+".mc", src)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		cres, err := confine.InferAndApply(mod2.Prog, mod2.Diags, confine.Options{Params: true, Info: mod2.TInfo})
		if err != nil {
			return nil, err
		}
		qual.Analyze(cres.Infer, cres.Solution, qual.ModePlain)
		withC += time.Since(t1)
	}
	out := &TimingResult{
		Module:       moduleName,
		WithConfine:  withC / time.Duration(rounds),
		WithoutCfine: withoutC / time.Duration(rounds),
	}
	if out.WithoutCfine > 0 {
		out.OverheadRatio = float64(out.WithConfine) / float64(out.WithoutCfine)
	}
	return out, nil
}
