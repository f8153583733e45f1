// Package core is the public facade of the local non-aliasing
// toolkit: it wires the pipeline of the paper end to end —
//
//	parse → standard types → alias-and-effect inference →
//	restrict/confine checking or inference → flow-sensitive
//	locked/unlocked qualifier analysis
//
// — and exposes the three-mode locking experiment of Section 7
// (no-confine / confine-inference / all-updates-strong).
package core

import (
	"context"
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/parser"
	"localalias/internal/qual"
	"localalias/internal/restrict"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// ModuleFailure is the structured record of one module's contained
// failure (panic, timeout, or analysis error), re-exported so
// pipeline drivers can speak in terms of core alone. See package
// faults for the containment guards that produce it.
type ModuleFailure = faults.ModuleFailure

// Module is a parsed and standard-type-checked compilation unit.
type Module struct {
	Name  string
	Prog  *ast.Program
	TInfo *types.Info
	Diags *source.Diagnostics
}

// LoadModule parses and type checks src. It fails on lexical,
// syntactic or standard type errors.
func LoadModule(name, src string) (*Module, error) {
	return LoadModuleTraced(name, src, nil)
}

// LoadModuleTraced is LoadModule with phase tracking: tr (when
// non-nil) records the parse and typecheck phases so a fault inside
// either is attributed correctly.
//
// On failure the returned module is still non-nil: it carries the
// name and the positioned diagnostics accumulated before the failing
// phase (Prog and TInfo may be nil), so callers can render excerpts
// or ship the diagnostics over the service API instead of losing them
// to a bare error string.
func LoadModuleTraced(name, src string, tr *faults.Trace) (*Module, error) {
	return LoadModuleWith(name, src, nil, tr)
}

// LoadModuleWith is LoadModuleTraced with cross-module import
// resolution: sigs supplies the exported signatures of
// separately-loaded modules. Import declarations naming packages
// absent from sigs fail with positioned "package not found"
// diagnostics.
func LoadModuleWith(name, src string, sigs types.ImportSigs, tr *faults.Trace) (*Module, error) {
	m := &Module{Name: name, Diags: &source.Diagnostics{}}
	tr.Enter(faults.PhaseParse)
	m.Prog = parser.Parse(name, src, m.Diags)
	if m.Diags.HasErrors() {
		return m, fmt.Errorf("%s: %w", name, m.Diags.Err())
	}
	tr.Enter(faults.PhaseTypecheck)
	m.TInfo = types.CheckWith(m.Prog, m.Diags, sigs)
	if m.Diags.HasErrors() {
		return m, fmt.Errorf("%s: %w", name, m.Diags.Err())
	}
	return m, nil
}

// CheckAnnotations verifies the module's explicit restrict/confine
// annotations (Sections 4 and 6.1). The result's Violations are also
// appended to m.Diags.
func (m *Module) CheckAnnotations() *restrict.CheckResult {
	return restrict.Check(m.TInfo, m.Diags)
}

// InferRestrict runs restrict inference (Section 5), marking
// successful lets in the AST.
func (m *Module) InferRestrict(params bool) *restrict.InferResult {
	return m.InferRestrictWith(restrict.Options{Params: params})
}

// InferRestrictWith is InferRestrict with full options (parameter
// candidates, solver memo).
func (m *Module) InferRestrictWith(opts restrict.Options) *restrict.InferResult {
	return restrict.Infer(m.TInfo, m.Diags, opts)
}

// LockingOptions configures the three-mode locking experiment.
type LockingOptions struct {
	// General selects the exhaustive scope search instead of the
	// paper's syntactic heuristic (Section 7).
	General bool
	// NoParams disables parameter restrict inference in the
	// confine-inference mode (on by default: it is how strong updates
	// cross helper-function boundaries).
	NoParams bool
	// NoLets disables let-or-restrict inference (Section 5) in the
	// confine-inference mode (on by default: it recovers strong
	// updates for locks held in local pointer bindings).
	NoLets bool
	// Memo, when non-nil, lets both solves replay content-addressed
	// component summaries recorded by earlier solves (and record new
	// ones). Replay is byte-identical to solving fresh.
	Memo *solve.Memo
	// MemoCounters, when non-nil, receives the component reuse
	// accounting (replayed vs freshly solved) aggregated over both
	// solves.
	MemoCounters *solve.MemoCounters
	// ImportEffects supplies per-formal effect masks for imported
	// functions ("pkg.fn"), applied at the solver level; nil havocs
	// every imported call's arguments.
	ImportEffects map[string][]effects.Mask
	// ImportTransfers supplies per-variant qualifier transfer tables
	// for imported functions; nil havocs imported calls in the
	// qualifier analysis (the single-module baseline).
	ImportTransfers [NumVariants]qual.Transfers
	// ExportAPI requests computation of the module's own package
	// summary (LockingResult.API) for downstream modules.
	ExportAPI bool
}

// The experiment variants a cross-module summary is computed under,
// mirroring the three analysis runs of AnalyzeLocking. Callers apply
// the variant matching their own run.
const (
	VariantNoConfine = iota
	VariantWithConfine
	VariantAllStrong
	NumVariants
)

// PackageAPI is everything a downstream module needs to compile and
// analyze against this module without re-analyzing its source: the
// exported function signatures, the per-variant qualifier transfer
// tables, and the per-formal effect masks.
type PackageAPI struct {
	Name string
	Sigs *types.PkgSig
	// Transfers holds each exported function's transfer tables per
	// experiment variant, keyed by unqualified function name.
	Transfers [NumVariants]qual.Transfers
	// Effects holds each exported function's per-formal effect masks.
	Effects map[string][]effects.Mask
}

// LockingResult carries the three reports of the Section 7
// experiment for one module.
type LockingResult struct {
	Module *Module

	// NoConfine is the baseline: weak updates wherever aliasing
	// demands them.
	NoConfine *qual.Report
	// WithConfine is the analysis after confine inference.
	WithConfine *qual.Report
	// AllStrong assumes every update is strong: the upper bound on
	// what strong-update recovery can eliminate.
	AllStrong *qual.Report

	// Confine is the inference run that produced WithConfine.
	Confine *confine.Result

	// SolveStats aggregates the constraint-solver work counters over
	// both solves (the baseline solve shared by the no-confine and
	// all-strong modes, and the confine-inference solve).
	SolveStats solve.Stats

	// API is the module's package summary for downstream modules,
	// computed when LockingOptions.ExportAPI is set.
	API *PackageAPI
}

// Potential returns the number of spurious errors that strong
// updates could eliminate (noConfine − allStrong).
func (r *LockingResult) Potential() int {
	return r.NoConfine.NumErrors() - r.AllStrong.NumErrors()
}

// Eliminated returns the number of errors confine inference actually
// eliminated (noConfine − withConfine).
func (r *LockingResult) Eliminated() int {
	return r.NoConfine.NumErrors() - r.WithConfine.NumErrors()
}

// AnalyzeLocking runs the three analysis modes of the experiment.
// The module's AST is rewritten in place by confine inference (the
// baseline and all-strong modes run first, on the pristine tree).
func (m *Module) AnalyzeLocking(opts LockingOptions) (*LockingResult, error) {
	return m.AnalyzeLockingCtx(nil, opts, nil)
}

// AnalyzeLockingCtx is AnalyzeLocking under fault-containment
// plumbing: ctx (when non-nil) bounds the constraint solves so a
// per-module deadline can abort a pathological system cooperatively,
// and tr (when non-nil) records which phase is executing so a panic
// or timeout is attributed to infer/solve/qual rather than to the
// whole module. Internal inconsistencies (unification mismatches,
// malformed effect expressions) become positioned diagnostics on
// m.Diags and an error — never a panic.
func (m *Module) AnalyzeLockingCtx(ctx context.Context, opts LockingOptions, tr *faults.Trace) (*LockingResult, error) {
	out := &LockingResult{Module: m}

	// Baseline and upper bound on the pristine AST.
	tr.Enter(faults.PhaseInfer)
	baseInfer := infer.Run(m.TInfo, m.Diags, infer.Options{
		ImportEffects: opts.ImportEffects,
	})
	if baseInfer.InternalErrors > 0 {
		return nil, fmt.Errorf("%s: %w", m.Name, m.Diags.Err())
	}
	tr.Enter(faults.PhaseSolve)
	baseSol := solve.SolveOpts(ctx, baseInfer.Sys, solve.Options{
		Memo: opts.Memo, Counters: opts.MemoCounters,
	})
	if err := m.reportMalformed(baseSol.Malformed()); err != nil {
		return nil, err
	}
	tr.Enter(faults.PhaseQual)
	out.NoConfine = qual.AnalyzeWith(baseInfer, baseSol, qual.ModePlain,
		opts.ImportTransfers[VariantNoConfine])
	out.AllStrong = qual.AnalyzeWith(baseInfer, baseSol, qual.ModeAllStrong,
		opts.ImportTransfers[VariantAllStrong])

	// Confine inference (mutates the AST), then the qualifier
	// analysis over the surviving bindings.
	cres, err := confine.InferAndApply(m.Prog, m.Diags, confine.Options{
		General:       opts.General,
		Params:        !opts.NoParams,
		Lets:          !opts.NoLets,
		Memo:          opts.Memo,
		MemoCounters:  opts.MemoCounters,
		Ctx:           ctx,
		Trace:         tr,
		Info:          m.TInfo,
		ImportEffects: opts.ImportEffects,
	})
	if err != nil {
		return nil, err
	}
	out.Confine = cres
	tr.Enter(faults.PhaseQual)
	out.WithConfine = qual.AnalyzeWith(cres.Infer, cres.Solution, qual.ModePlain,
		opts.ImportTransfers[VariantWithConfine])
	out.SolveStats.Add(baseSol.Stats)
	out.SolveStats.Add(cres.Solution.Stats)
	if opts.ExportAPI {
		out.API = exportAPI(m, baseInfer, baseSol, cres, opts)
	}
	// The baseline solution's consumers (the two qual analyses above)
	// are done and nothing retains it, so its pooled storage can serve
	// the next module. cres.Solution stays live — it is exported via
	// out.Confine.
	baseSol.Release()
	return out, nil
}

// exportAPI computes the module's package summary from the three
// analysis runs: transfer tables are probed under exactly the
// (inference result, solution, mode) triples the experiment's columns
// use, so a caller applying variant V sees the callee as variant V
// analyzed it. Effect masks come from the baseline solve's latent
// effects, restricted to the cells each formal exposes.
func exportAPI(m *Module, baseInfer *infer.Result, baseSol *solve.Result,
	cres *confine.Result, opts LockingOptions) *PackageAPI {
	api := &PackageAPI{
		Name:    m.Name,
		Sigs:    m.TInfo.Exports(m.Name),
		Effects: make(map[string][]effects.Mask),
	}
	api.Transfers[VariantNoConfine] = qual.ComputeTransfers(
		baseInfer, baseSol, qual.ModePlain, opts.ImportTransfers[VariantNoConfine])
	api.Transfers[VariantAllStrong] = qual.ComputeTransfers(
		baseInfer, baseSol, qual.ModeAllStrong, opts.ImportTransfers[VariantAllStrong])
	api.Transfers[VariantWithConfine] = qual.ComputeTransfers(
		cres.Infer, cres.Solution, qual.ModePlain, opts.ImportTransfers[VariantWithConfine])
	for name, sig := range api.Sigs.Funs {
		api.Effects[name] = effectMasks(baseInfer, baseSol, sig)
	}
	return api
}

// effectMasks computes one read/write/alloc mask per formal of sig:
// the kinds the function's solved latent effect contains on locations
// reachable from that formal.
func effectMasks(res *infer.Result, sol *solve.Result, sig *types.FunSig) []effects.Mask {
	masks := make([]effects.Mask, len(sig.Params))
	eff, ok := res.FunEff[sig.Name]
	if !ok || sol == nil {
		for i := range masks {
			masks[i] = effects.HavocMask
		}
		return masks
	}
	cells := make([]map[locs.Loc]bool, len(sig.Params))
	for i := range sig.Params {
		cells[i] = make(map[locs.Loc]bool)
		for _, c := range res.ParamCells(sig.Decl, i) {
			cells[i][c] = true
		}
	}
	sol.EachAtom(eff, func(at effects.Atom) {
		if at.Kind == effects.LocAtom {
			return
		}
		l := res.Locs.Find(at.Loc)
		for i := range cells {
			if cells[i][l] {
				masks[i] |= at.Kind.Bit()
			}
		}
	})
	return masks
}

// reportMalformed converts constraints dropped during normalization
// into positioned internal-error diagnostics and a module-failing
// error. A healthy build never reaches this path; it exists so an
// effects-language extension missing a Normalize case degrades to one
// failed module instead of a crashed corpus run. The diagnostic
// wording is shared with confine via effects.ReportMalformed.
func (m *Module) reportMalformed(mal []effects.MalformedExpr) error {
	if !effects.ReportMalformed(m.Diags, m.Prog.File, mal) {
		return nil
	}
	return fmt.Errorf("%s: %w", m.Name, m.Diags.Err())
}
