package service

import (
	"context"
	"fmt"

	"localalias/internal/core"
	"localalias/internal/faults"
	"localalias/internal/modgraph"
	"localalias/internal/solve"
	"localalias/internal/source"
)

// analyzeMultiModule runs the whole-program pass for a multi_module
// request: the request module plus Options.Libraries are linked over
// the import DAG and analyzed bottom-up with package summaries
// (internal/modgraph). The response reports the request module;
// library failures surface as diagnostics on it, positioned in the
// failing library's source.
//
// Returns the request module (for diagnostics rendering), its locking
// report, the transformed program (confine mode), the aggregated
// solver stats, and the X-Lna-Xmodule summary value.
func analyzeMultiModule(ctx context.Context, tr *faults.Trace, req *AnalyzeRequest, name, src, mode string) (*core.Module, *LockingReport, string, solve.Stats, string, error) {
	sources := make([]modgraph.Source, 0, len(req.Options.Libraries)+1)
	for _, lib := range req.Options.Libraries {
		sources = append(sources, modgraph.Source{Name: lib.Name, Text: lib.Source})
	}
	sources = append(sources, modgraph.Source{Name: name, Text: src})

	// ctx carries the request's deadline and analyze span into every
	// module's analysis, which runs on this goroutine under the
	// engine's fault guard. tr names the phase a failure happened in
	// and sums each phase over the modules, but is detached from the
	// request's spans: each module has its own span already, and a
	// phase span per module multiplies every retained trace by the
	// module count (+19% peak heap on the fleet_xmodule workload).
	tr.SetSpans(nil)
	xres := modgraph.AnalyzeCtx(ctx, sources, modgraph.Options{
		General:      req.Options.General,
		Memo:         req.Memo,
		MemoCounters: req.MemoCounters,
	}, tr)

	var stats solve.Stats
	analyzed := 0
	for _, mr := range xres.Modules {
		if mr.Locking != nil {
			stats.Add(mr.Locking.SolveStats)
		}
		if !mr.Failed() {
			analyzed++
		}
	}
	failed := len(xres.Modules) - analyzed
	xmodule := fmt.Sprintf("modules=%d;analyzed=%d;failed=%d", len(xres.Modules), analyzed, failed)

	mr := xres.Modules[name]
	mod := mr.Module
	if mod == nil {
		// Duplicate module name: no parse tree to attach to — a
		// positionless diagnostic carries the failure.
		mod = &core.Module{Name: name, Diags: &source.Diagnostics{}}
		mod.Diags.Add(&source.Diagnostic{
			Severity: source.Error, Phase: "modgraph", Message: mr.Err.Error(),
		})
		return mod, nil, "", stats, xmodule, nil
	}

	// Surface failed libraries on the request module's diagnostics:
	// each entry stays positioned in its own source file, dependency
	// failures first (sorted by library name) so they read bottom-up.
	var merged source.Diagnostics
	for _, dep := range xres.Failures() {
		if dep == name {
			continue
		}
		if dm := xres.Modules[dep]; dm.Module != nil {
			merged.List = append(merged.List, dm.Module.Diags.List...)
		}
	}
	merged.List = append(merged.List, mod.Diags.List...)
	mod.Diags.List = merged.List

	if mr.Failed() {
		if mod.Diags.HasErrors() {
			// Load/type/cycle failure: the positioned diagnostics ARE
			// the result (findings, not a degraded run).
			return mod, nil, "", stats, xmodule, nil
		}
		return mod, nil, "", stats, xmodule, mr.Err
	}

	locking := lockingReport(mod, mr.Locking)
	program := ""
	if mode == ModeConfine {
		program = formatProgram(mod.Prog)
	}
	return mod, locking, program, stats, xmodule, nil
}
