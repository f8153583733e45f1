package service

import (
	"context"
	"fmt"
	"strings"
	"time"

	"localalias/internal/ast"
	"localalias/internal/core"
	"localalias/internal/faults"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/restrict"
	"localalias/internal/solve"
)

// testAnalyzeHook, when non-nil, runs inside the fault guard before
// the module is loaded. It is the seam this package's own tests use to
// make a chosen module panic or stall; corpus drivers inject faults
// through AnalyzeRequest.Generate instead.
var testAnalyzeHook func(ctx context.Context, module string)

// Analyze runs one request through the full pipeline with fault
// containment but no deadline. See AnalyzeBounded.
func Analyze(ctx context.Context, req *AnalyzeRequest) *AnalyzeResponse {
	return AnalyzeBounded(ctx, req, 0)
}

// AnalyzeBounded is the one analysis engine behind every front end
// (CLI subcommands, the experiment driver, and the daemon). The whole
// pipeline — source generation (when requested), parsing, type
// checking, inference, solving, and the mode-specific analysis — runs
// under a faults.RunBounded guard: a panic or a missed deadline
// becomes the response's Failure record, never a crashed process or a
// dropped connection. timeout bounds the module's wall-clock analysis
// (0 means no deadline beyond ctx's own).
//
// Outcome classification follows the shared exit-code table: source
// that fails to parse or type check yields findings (positioned
// diagnostics, Failure nil); a contained panic, timeout, or internal
// inconsistency yields a degraded response (Failure set).
func AnalyzeBounded(ctx context.Context, req *AnalyzeRequest, timeout time.Duration) *AnalyzeResponse {
	mode := req.Options.Mode
	if mode == "" {
		mode = ModeQual
	}
	name := req.Module
	if name == "" {
		name = "module.mc"
	}
	resp := &AnalyzeResponse{APIVersion: APIVersion, Module: name, Mode: mode}
	if !ValidMode(mode) {
		resp.Failure = &faults.ModuleFailure{
			Module: name, Kind: faults.KindError,
			Message: fmt.Sprintf("unknown analysis mode %q", mode),
		}
		resp.Diagnostics = NewDiagnostics(nil, solve.Stats{})
		return resp
	}
	if req.Options.MultiModule && mode != ModeConfine && mode != ModeQual {
		resp.Failure = &faults.ModuleFailure{
			Module: name, Kind: faults.KindError,
			Message: fmt.Sprintf("multi_module is not supported in mode %q (confine and qual only)", mode),
		}
		resp.Diagnostics = NewDiagnostics(nil, solve.Stats{})
		return resp
	}

	obs.App().Requests(mode).Inc()
	tr := faults.NewTrace(name)
	tr.SetSpans(req.Obs)
	// Open the request's root span and install it in the context: the
	// fault guard derives its context from ctx, so the span reaches
	// every ctx-aware layer below (the modgraph runner's per-module
	// spans) without new parameters, and the phase spans faults.Trace
	// emits parent under it via the trace's default-parent stack.
	span := req.Obs.StartSpan("analyze", "request")
	ctx = obs.ContextWithSpan(ctx, req.Obs, span.ID())
	start := time.Now()
	// The closure writes only these locals; on a timeout the abandoned
	// goroutine may still be running, so they are read back only when
	// the guard reports the goroutine actually finished.
	var (
		mod      *core.Module
		check    *CheckReport
		inferRep *InferReport
		locking  *LockingReport
		program  string
		stats    solve.Stats
		xmodule  string
	)
	fail := faults.RunBounded(ctx, name, timeout, tr, func(ctx context.Context) error {
		if testAnalyzeHook != nil {
			testAnalyzeHook(ctx, name)
		}
		src := req.Source
		if req.Generate != nil {
			tr.Enter(faults.PhaseGenerate)
			src = req.Generate(ctx)
		}
		if req.Options.MultiModule {
			var err error
			mod, locking, program, stats, xmodule, err = analyzeMultiModule(ctx, tr, req, name, src, mode)
			return err
		}
		m, err := core.LoadModuleTraced(name, src, tr)
		mod = m
		if err != nil {
			// Lexical, syntactic, or standard type errors: the
			// positioned diagnostics on the module ARE the result
			// (findings, not a degraded run).
			return nil
		}
		switch mode {
		case ModeCheck:
			r := restrict.CheckWith(m.TInfo, m.Diags, restrict.CheckOptions{
				Liberal:      req.Options.Liberal,
				Memo:         req.Memo,
				MemoCounters: req.MemoCounters,
			})
			check = &CheckReport{OK: r.OK(), UsedFigure5: r.UsedFigure5}
		case ModeInfer:
			r := m.InferRestrictWith(restrict.Options{
				Params:       req.Options.Params,
				Memo:         req.Memo,
				MemoCounters: req.MemoCounters,
			})
			rep := &InferReport{
				Candidates: len(r.Infer.Candidates),
				Restricted: len(r.Restricted),
			}
			for _, c := range r.Restricted {
				rep.Marked = append(rep.Marked, fmt.Sprintf("%s %q", c.Kind, c.Name))
			}
			for _, rej := range r.Rejected {
				if len(rej.Reasons) > 0 {
					rep.Rejected = append(rep.Rejected, rej.Reasons[0])
				}
			}
			inferRep = rep
			stats.Add(r.Solution.Stats)
			program = formatProgram(m.Prog)
			// The engine renders everything it needs from the solution
			// above; recycle its pooled storage for the next request.
			r.Solution.Release()
		case ModeConfine, ModeQual:
			lr, err := m.AnalyzeLockingCtx(ctx, core.LockingOptions{
				General:      req.Options.General,
				Memo:         req.Memo,
				MemoCounters: req.MemoCounters,
			}, tr)
			if err != nil {
				return err
			}
			locking = lockingReport(m, lr)
			stats.Add(lr.SolveStats)
			if mode == ModeConfine {
				program = formatProgram(m.Prog)
			}
		}
		return nil
	})
	resp.Elapsed = time.Since(start)
	resp.PhaseTimings = tr.Timings()
	resp.Failure = fail

	// Fold the request into the process-wide metrics (latency
	// histograms and failure counters) and close the enclosing request
	// span. Timings — like everything obs records — stay out of the
	// canonical wire body, so cached responses replay byte-identically.
	m := obs.App()
	m.AnalyzeSeconds.Observe(resp.Elapsed)
	for _, pt := range resp.PhaseTimings {
		m.RecordPhase(string(pt.Phase), pt.Elapsed)
	}
	if fail != nil {
		m.Failures(string(fail.Kind)).Inc()
	}
	span.End("module", name, "mode", mode)

	// A non-timeout outcome means the analysis goroutine delivered its
	// result, so the module (and its diagnostics) are safely ours. A
	// timed-out module's diagnostics stay with the abandoned goroutine.
	if fail == nil || fail.Kind != faults.KindTimeout {
		resp.Xmodule = xmodule
		if mod != nil {
			resp.Raw = mod.Diags
			resp.Diagnostics = NewDiagnostics(mod.Diags, stats)
		} else {
			resp.Diagnostics = NewDiagnostics(nil, stats)
		}
	} else {
		resp.Diagnostics = NewDiagnostics(nil, solve.Stats{})
	}
	resp.Check = check
	resp.Infer = inferRep
	resp.Locking = locking
	resp.Program = program

	resp.Findings = resp.Diagnostics.ErrorCount()
	if locking != nil {
		resp.Findings += locking.WithConfine.NumErrors
	}
	resp.OK = fail == nil && resp.Findings == 0
	return resp
}

// lockingReport converts the core result into wire form.
func lockingReport(m *core.Module, lr *core.LockingResult) *LockingReport {
	return &LockingReport{
		Sites:       lr.NoConfine.NumSites,
		Planted:     lr.Confine.Planted,
		Kept:        len(lr.Confine.Kept),
		Potential:   lr.Potential(),
		Eliminated:  lr.Eliminated(),
		NoConfine:   modeReport(m, lr.NoConfine),
		WithConfine: modeReport(m, lr.WithConfine),
		AllStrong:   modeReport(m, lr.AllStrong),
	}
}

func modeReport(m *core.Module, r *qual.Report) ModeReport {
	out := ModeReport{NumErrors: r.NumErrors(), Errors: []Diagnostic{}}
	for _, e := range r.Errors {
		out.Errors = append(out.Errors, Diagnostic{
			Pos:      m.Prog.File.Position(e.Site.Start).String(),
			Severity: "error",
			Phase:    "qual",
			Message:  e.String(),
		})
	}
	return out
}

func formatProgram(prog *ast.Program) string {
	var b strings.Builder
	_ = ast.Fprint(&b, prog)
	return b.String()
}
