// Package restrict provides the user-facing entry points for
// restrict checking (Section 4) and restrict inference (Section 5).
//
// Check verifies the restrict (and confine) annotations of a
// standard-typed program: it runs alias-and-effect inference to
// generate the constraint system and then tests every side condition.
// For programs whose only annotations are restricts, the test is the
// O(kn) CHECK-SAT algorithm of Figure 5; programs with confine
// annotations need the kind- and pair-checks of Section 6.1, which
// are evaluated against the full least solution.
//
// Infer decides, for every ref-typed let binding (and optionally
// every ref-typed parameter), whether it can soundly become a
// restrict, using the let-or-restrict conditional constraints. The
// least solution yields the unique maximum annotation (the paper's
// optimality result); successful let candidates are recorded by
// setting DeclStmt.Restrict.
package restrict

import (
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// CheckResult reports restrict/confine checking.
type CheckResult struct {
	Infer      *infer.Result
	Violations []solve.Violation
	// UsedFigure5 reports whether the O(kn) marked-search path was
	// taken (restrict-only systems).
	UsedFigure5 bool
}

// OK reports whether every annotation checked out.
func (r *CheckResult) OK() bool { return len(r.Violations) == 0 }

// CheckOptions configures checking.
type CheckOptions struct {
	// Liberal uses the Section 5 semantics for the restrict effect:
	// restricting a location counts as an effect only if the
	// restricted copy is used (matching C99 and the inference rule).
	// The default is the strict Figure 2 rule.
	Liberal bool
	// Memo, when non-nil, lets the solve replay content-addressed
	// component summaries recorded by earlier solves (and record new
	// ones). Replay is byte-identical to solving fresh.
	Memo *solve.Memo
	// MemoCounters, when non-nil, receives the solve's component
	// reuse accounting (replayed vs freshly solved).
	MemoCounters *solve.MemoCounters
}

// Check verifies all restrict and confine annotations in the program
// under the strict Figure 2 semantics. Violations are appended to
// diags (phase "restrict") and returned.
func Check(tinfo *types.Info, diags *source.Diagnostics) *CheckResult {
	return CheckWith(tinfo, diags, CheckOptions{})
}

// CheckWith is Check with explicit options.
func CheckWith(tinfo *types.Info, diags *source.Diagnostics, opts CheckOptions) *CheckResult {
	res := infer.Run(tinfo, diags, infer.Options{
		LiberalRestrictEffect: opts.Liberal,
	})
	out := &CheckResult{Infer: res}
	sys := res.Sys
	if len(sys.Conds) == 0 && len(sys.KindNotIns) == 0 && len(sys.PairNotIns) == 0 {
		out.UsedFigure5 = true
		out.Violations = solve.Check(sys)
	} else {
		sol := solve.SolveOpts(nil, sys, solve.Options{Memo: opts.Memo, Counters: opts.MemoCounters})
		out.Violations = sol.Violations()
		// Checking consumes nothing else from the solution, so its
		// pooled storage can go straight back for the next module.
		sol.Release()
	}
	for _, v := range out.Violations {
		diags.Errorf(tinfo.Prog.File, v.Site, "restrict", "%s", v.String())
	}
	return out
}

// InferResult reports restrict inference.
type InferResult struct {
	Infer    *infer.Result
	Solution *solve.Result
	// Restricted lists the candidates that became restricts;
	// Rejected the ones that stayed lets, with reasons.
	Restricted []*infer.Candidate
	Rejected   []Rejection
	// Violations are failures of explicit annotations present in the
	// same program.
	Violations []solve.Violation
}

// Rejection explains why a candidate stayed a let.
type Rejection struct {
	Cand    *infer.Candidate
	Reasons []string
}

// Options configures inference.
type Options struct {
	// Params additionally treats ref-typed parameters as restrict
	// candidates.
	Params bool
	// Memo, when non-nil, lets the solve replay content-addressed
	// component summaries recorded by earlier solves (and record new
	// ones). Replay is byte-identical to solving fresh.
	Memo *solve.Memo
	// MemoCounters, when non-nil, receives the solve's component
	// reuse accounting (replayed vs freshly solved).
	MemoCounters *solve.MemoCounters
}

// Infer runs restrict inference, marking successful let candidates in
// the AST (DeclStmt.Restrict) and returning the full report.
// Violations of explicit annotations are appended to diags.
func Infer(tinfo *types.Info, diags *source.Diagnostics, opts Options) *InferResult {
	// Inference adopts the liberal Section 5 semantics throughout —
	// for candidates (inherently, via the conditional constraints)
	// and for explicit annotations alike — so the computed annotation
	// is the unique maximum under one consistent interpretation.
	res := infer.Run(tinfo, diags, infer.Options{
		InferRestrictLets:     true,
		InferRestrictParams:   opts.Params,
		LiberalRestrictEffect: true,
	})
	sol := solve.SolveOpts(nil, res.Sys, solve.Options{Memo: opts.Memo, Counters: opts.MemoCounters})
	out := &InferResult{Infer: res, Solution: sol}

	// Index the fired conditionals by the location pair their ActUnify
	// merges, once, instead of scanning all of sol.Fired per rejected
	// candidate (O(rejected × fired) on large modules). Reasons keep
	// firing order, and a conditional contributes one reason per pair
	// even if it carries both orientations.
	firedUnifies := make(map[[2]locs.Loc][]string)
	for _, f := range sol.Fired {
		var done [][2]locs.Loc
	actions:
		for _, a := range f.Actions {
			u, ok := a.(effects.ActUnify)
			if !ok {
				continue
			}
			key := [2]locs.Loc{u.A, u.B}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			for _, d := range done {
				if d == key {
					continue actions
				}
			}
			done = append(done, key)
			firedUnifies[key] = append(firedUnifies[key], f.Reason)
		}
	}

	for _, c := range res.Candidates {
		if res.Succeeded(c) {
			if d, ok := c.Node.(*ast.DeclStmt); ok {
				d.Restrict = true
			}
			out.Restricted = append(out.Restricted, c)
			continue
		}
		key := [2]locs.Loc{c.Rho, c.RhoP}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		why := firedUnifies[key]
		if len(why) == 0 {
			why = []string{"locations unified transitively by other constraints"}
		}
		out.Rejected = append(out.Rejected, Rejection{Cand: c, Reasons: why})
	}

	out.Violations = sol.Violations()
	for _, v := range out.Violations {
		diags.Errorf(tinfo.Prog.File, v.Site, "restrict", "%s", v.String())
	}
	return out
}

// Summary renders a one-line-per-candidate report.
func (r *InferResult) Summary() string {
	s := fmt.Sprintf("restrict inference: %d of %d candidates restricted\n",
		len(r.Restricted), len(r.Infer.Candidates))
	for _, c := range r.Restricted {
		s += fmt.Sprintf("  restrict %s %q\n", c.Kind, c.Name)
	}
	for _, rej := range r.Rejected {
		s += fmt.Sprintf("  keep     %s\n", rej.Reasons[0])
	}
	return s
}
