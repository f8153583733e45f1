// Package confine implements confine inference (Section 6 of the
// paper): automatically placing "confine e { ... }" around statement
// ranges so that a flow-sensitive analysis can perform strong updates
// on the location e points to.
//
// The pipeline is the one the paper's Section 7 describes:
//
//  1. Plant confine? candidates. The default planter is the paper's
//     syntactic heuristic: for every block, when two or more
//     statements contain change_type calls (spin_lock/spin_unlock)
//     whose arguments match syntactically, wrap the smallest
//     sub-block covering them in a confine? of that argument, and
//     report that the new sub-block contains no change_type. The
//     General option keeps planted scopes transparent so enclosing
//     blocks are also tried, approximating the Section 6.2 algorithm
//     of inserting confine? at every possible scope and keeping the
//     outermost success.
//     A range is only wrapped when that keeps every name resolving
//     as before: no let of the range is used after it, and no name of
//     the confined expression is bound inside it.
//  2. Extend the first pass's standard typing to the planted program
//     instead of checking it again: planting only wraps typed
//     statements, so only the cloned confined expressions are new,
//     and each takes the types and symbols of the occurrence it
//     copies. Then run alias-and-effect inference with the planted
//     nodes marked optional, and solve. Each candidate succeeds iff
//     its ρ and ρ′ remain distinct in the least solution.
//  3. Apply verdicts: failed candidates are spliced back out of the
//     AST; successes are kept (marked Inferred), adjacent successful
//     confines of the same expression are combined per the identity
//     (confine e in s1; confine e in s2) = confine e in {s1; s2},
//     and nested same-expression confines are pruned to the
//     outermost.
package confine

import (
	"context"
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Options configures inference.
type Options struct {
	// General keeps planted scopes transparent to enclosing blocks,
	// approximating the exhaustive Section 6.2 scope search. The
	// default is the paper's (weaker, faster) syntactic heuristic.
	General bool
	// Params additionally runs restrict inference over ref-typed
	// parameters. This is how the pipeline recovers strong updates
	// across helper-function boundaries (the paper's Figure 1
	// pattern, where C99 would annotate the parameter itself).
	Params bool
	// Lets additionally runs let-or-restrict inference (Section 5).
	Lets bool
	// Ctx, when non-nil, bounds the constraint solve: the solver
	// checks its deadline cooperatively so a per-module timeout can
	// abort a pathological system (see package faults).
	Ctx context.Context
	// Trace, when non-nil, records phase transitions (confine.plant/
	// confine.infer/confine.solve) for fault attribution in corpus
	// runs.
	Trace *faults.Trace
	// Memo, when non-nil, lets the solve replay content-addressed
	// component summaries recorded by earlier solves (and record new
	// ones). Replay is byte-identical to solving fresh.
	Memo *solve.Memo
	// MemoCounters, when non-nil, receives the solve's component
	// reuse accounting (replayed vs freshly solved).
	MemoCounters *solve.MemoCounters
	// Info is the standard-typing result of prog as it is on entry,
	// which the caller has in hand from checking it. Planting extends
	// it in place to the planted program instead of checking that
	// again. nil checks prog first (against Imports).
	Info *types.Info
	// Imports supplies resolved import signatures for checking prog
	// when Info is nil; it must match what the module was originally
	// loaded with.
	Imports types.ImportSigs
	// ImportEffects supplies per-formal effect masks for imported
	// functions ("pkg.fn"); nil havocs imported calls (see
	// infer.Options.ImportEffects).
	ImportEffects map[string][]effects.Mask
}

// Result reports a confine inference run.
type Result struct {
	TInfo    *types.Info
	Infer    *infer.Result
	Solution *solve.Result
	// Planted is the number of confine? candidates inserted; Kept the
	// candidates that succeeded and remain in the AST; Removed the
	// count spliced back out.
	Planted int
	Kept    []*infer.Candidate
	Removed int
	// Violations report failures of explicit (hand-written)
	// annotations encountered along the way.
	Violations []solve.Violation
}

// InferAndApply plants confine? candidates in prog, solves, and
// rewrites prog in place so that exactly the successful confines
// remain (marked Inferred). It returns the analysis artifacts needed
// by the flow-sensitive qualifier analysis: the rewritten program's
// types.Info (opts.Info itself when given, extended in place), the
// infer.Result whose maps cover the surviving nodes, and the least
// solution.
func InferAndApply(prog *ast.Program, diags *source.Diagnostics, opts Options) (*Result, error) {
	res := &Result{TInfo: opts.Info}
	if res.TInfo == nil {
		opts.Trace.Enter(faults.PhaseTypecheck)
		res.TInfo = types.CheckWith(prog, diags, opts.Imports)
		if diags.HasErrors() {
			return res, fmt.Errorf("confine: program fails standard checking: %w", diags.Err())
		}
	}

	// 1. Plant, extending the Info with the cloned expressions.
	opts.Trace.Enter(faults.PhaseConfinePlant)
	planter := &planter{general: opts.General, info: res.TInfo, planted: make(map[*ast.ConfineStmt]bool)}
	for _, f := range prog.Funs {
		planter.block(f.Body, nil)
	}
	res.Planted = len(planter.planted)

	// 2. Infer over the planted program and solve.
	opts.Trace.Enter(faults.PhaseConfineInfer)
	res.Infer = infer.Run(res.TInfo, diags, infer.Options{
		InferRestrictLets:     opts.Lets,
		InferRestrictParams:   opts.Params,
		OptionalConfines:      planter.planted,
		ImportEffects:         opts.ImportEffects,
		LiberalRestrictEffect: true, // inference uses the §5 semantics
	})
	if res.Infer.InternalErrors > 0 {
		return res, fmt.Errorf("confine: inference failed on the planted program: %w", diags.Err())
	}
	opts.Trace.Enter(faults.PhaseConfineSolve)
	res.Solution = solve.SolveOpts(opts.Ctx, res.Infer.Sys, solve.Options{
		Memo: opts.Memo, Counters: opts.MemoCounters,
	})
	if effects.ReportMalformed(diags, prog.File, res.Solution.Malformed()) {
		return res, fmt.Errorf("confine: %w", diags.Err())
	}
	res.Violations = res.Solution.Violations()
	for _, v := range res.Violations {
		diags.Errorf(prog.File, v.Site, "confine", "%s", v.String())
	}

	// 3. Apply verdicts.
	verdict := make(map[*ast.ConfineStmt]bool)
	for _, c := range res.Infer.Candidates {
		if cs, ok := c.Node.(*ast.ConfineStmt); ok && planter.planted[cs] {
			ok := res.Infer.Succeeded(c)
			verdict[cs] = ok
			if ok {
				cs.Inferred = true
				res.Kept = append(res.Kept, c)
			} else {
				res.Removed++
			}
		}
	}
	for _, f := range prog.Funs {
		applyVerdicts(f.Body, verdict, nil)
	}
	// Mark successful let candidates as in restrict inference.
	for _, c := range res.Infer.Candidates {
		if d, ok := c.Node.(*ast.DeclStmt); ok && res.Infer.Succeeded(c) {
			d.Restrict = true
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Planting

// planter inserts confine? candidates into a checked program, keeping
// info a valid types.Info of the planted program: wrapping statements
// in a confine scope changes no name resolution (wraps that would are
// skipped), so only the cloned confined expressions need recording.
type planter struct {
	general bool
	info    *types.Info
	planted map[*ast.ConfineStmt]bool
}

// lockArg is one confinable change_type argument and its ExprString.
type lockArg struct {
	key  string
	expr ast.Expr
}

// stmtFacts is what the pairing loop needs of one statement of a
// block, computed once per block rather than once per iteration.
type stmtFacts struct {
	// args are the statement's confinable change_type arguments in
	// source order.
	args []lockArg
	// reach is the index of the last statement of the block that uses
	// a let declared by this statement (the statement's own index when
	// it declares nothing used later). A range may be wrapped only if
	// no statement in it reaches past its end: the wrap would end the
	// let's scope early.
	reach int
}

// lockArgs appends to out the confinable change_type arguments
// syntactically contained in s: arguments of spin_lock/spin_unlock
// that are call-free pointer expressions. Planted candidate
// sub-blocks are opaque under the heuristic ("the new sub-block does
// not contain a change_type") and transparent in general mode.
func (p *planter) lockArgs(s ast.Stmt, out []lockArg) []lockArg {
	ast.Inspect(s, func(n ast.Node) bool {
		if cs, ok := n.(*ast.ConfineStmt); ok && !p.general && p.planted[cs] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !types.IsLockOp(call.Fun) || len(call.Args) != 1 {
			return true
		}
		arg := call.Args[0]
		if confinable(arg) {
			out = append(out, lockArg{key: ast.ExprString(arg), expr: arg})
		}
		return true
	})
	return out
}

// confinable enforces the Section 6.1 syntactic restriction: the
// expression must terminate and behave like a name, so it is built
// from identifiers, field accesses, indexes, dereferences and
// address-of only — no calls, no allocation.
func confinable(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.NewExpr:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// block plants candidates in b, bottom-up. alreadyConfined carries
// the expressions confined by enclosing planted candidates, to avoid
// infinitely re-wrapping the same range.
func (p *planter) block(b *ast.Block, alreadyConfined map[string]bool) {
	// Children first (smallest scopes get the tightest confines).
	for _, s := range b.Stmts {
		p.stmt(s, alreadyConfined)
	}
	facts := make([]stmtFacts, len(b.Stmts))
	var decls map[*ast.DeclStmt]int
	for i, s := range b.Stmts {
		facts[i] = stmtFacts{args: p.lockArgs(s, nil), reach: i}
		if d, ok := s.(*ast.DeclStmt); ok {
			if decls == nil {
				decls = make(map[*ast.DeclStmt]int)
			}
			decls[d] = i
		}
	}
	if decls != nil {
		for i, s := range b.Stmts {
			ast.Inspect(s, func(n ast.Node) bool {
				if v, ok := n.(*ast.VarExpr); ok {
					if sym := p.info.Uses[v]; sym != nil {
						if d, ok := sym.Def.(*ast.DeclStmt); ok {
							if j, ok := decls[d]; ok && i > facts[j].reach {
								facts[j].reach = i
							}
						}
					}
				}
				return true
			})
		}
	}
	p.pair(b, facts, alreadyConfined)
}

// pair wraps statements of b (whose facts are given) to a fixpoint:
// while some unmasked expression has change_types in two or more
// statements, the smallest such range that can be wrapped safely is.
func (p *planter) pair(b *ast.Block, facts []stmtFacts, alreadyConfined map[string]bool) {
	for {
		// For each confinable expression, the statement indices
		// containing a change_type of it, and its last occurrence.
		occ := map[string][]int{}
		exprs := map[string]ast.Expr{}
		for i, f := range facts {
			for _, a := range f.args {
				if idxs := occ[a.key]; len(idxs) == 0 || idxs[len(idxs)-1] != i {
					occ[a.key] = append(idxs, i)
				}
				exprs[a.key] = a.expr
			}
		}
		// Pick the key with >= 2 occurrences and the smallest range
		// that keeps scoping intact; break ties toward the leftmost.
		bestKey := ""
		bestFirst, bestLast := 0, 0
		for k, idxs := range occ {
			if alreadyConfined[k] || len(idxs) < 2 {
				continue
			}
			first, last := idxs[0], idxs[len(idxs)-1]
			better := bestKey == "" ||
				(last-first) < (bestLast-bestFirst) ||
				((last-first) == (bestLast-bestFirst) && (first < bestFirst || (first == bestFirst && k < bestKey)))
			if better && p.wrappable(b, facts, first, last, exprs[k]) {
				bestKey, bestFirst, bestLast = k, first, last
			}
		}
		if bestKey == "" {
			return
		}
		facts = p.wrap(b, facts, bestFirst, bestLast, exprs[bestKey], bestKey, alreadyConfined)
	}
}

// wrappable reports whether wrapping b.Stmts[first..last] in a confine
// of a copy of expr keeps every name resolving as before: no let of the
// range is used after it, and none of expr's names is bound inside the
// range (the copy heads the range, outside such a binding's scope).
func (p *planter) wrappable(b *ast.Block, facts []stmtFacts, first, last int, expr ast.Expr) bool {
	for _, f := range facts[first : last+1] {
		if f.reach > last {
			return false
		}
	}
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		v, isVar := n.(*ast.VarExpr)
		if !isVar || !ok {
			return ok
		}
		sym := p.info.Uses[v]
		if sym == nil {
			ok = false
			return false
		}
		switch def := sym.Def.(type) {
		case *ast.DeclStmt, *ast.BindStmt:
			for _, s := range b.Stmts[first : last+1] {
				ast.Inspect(s, func(n ast.Node) bool {
					if n == def {
						ok = false
					}
					return ok
				})
			}
		}
		return ok
	})
	return ok
}

// wrap replaces b.Stmts[first..last] with a single confine? of a copy
// of expr and returns the facts of the rewritten block.
func (p *planter) wrap(b *ast.Block, facts []stmtFacts, first, last int, expr ast.Expr, key string, alreadyConfined map[string]bool) []stmtFacts {
	span := b.Stmts[first].Span().Union(b.Stmts[last].Span())
	inner := &ast.Block{
		Stmts: append([]ast.Stmt(nil), b.Stmts[first:last+1]...),
		Sp:    span,
	}
	cs := &ast.ConfineStmt{
		Expr:     p.info.CloneExpr(expr),
		Body:     inner,
		Inferred: false, // set on success
		Sp:       span,
	}
	p.planted[cs] = true

	rest := append([]ast.Stmt(nil), b.Stmts[last+1:]...)
	b.Stmts = append(b.Stmts[:first], cs)
	b.Stmts = append(b.Stmts, rest...)

	// The new statement carries the range's change_types only when
	// planted scopes are transparent; no let of the range outlives it.
	// Reaches into the range now reach the new statement.
	innerFacts := append([]stmtFacts(nil), facts[first:last+1]...)
	merged := stmtFacts{reach: first}
	if p.general {
		for _, f := range innerFacts {
			merged.args = append(merged.args, f.args...)
		}
	}
	shift := last - first
	out := append(facts[:first:first], merged)
	out = append(out, facts[last+1:]...)
	for i := range out {
		switch r := out[i].reach; {
		case r > last:
			out[i].reach = r - shift
		case r >= first:
			out[i].reach = first
		}
	}

	// The new body may pair other expressions among the statements it
	// swallowed; process it with this key masked. Its statements keep
	// their facts, rebased to the new block.
	for i := range innerFacts {
		innerFacts[i].reach -= first
	}
	sub := map[string]bool{key: true}
	for k := range alreadyConfined {
		sub[k] = true
	}
	p.pair(inner, innerFacts, sub)
	return out
}

// stmt recurses into nested blocks.
func (p *planter) stmt(s ast.Stmt, alreadyConfined map[string]bool) {
	switch s := s.(type) {
	case *ast.BindStmt:
		p.block(s.Body, alreadyConfined)
	case *ast.ConfineStmt:
		sub := map[string]bool{ast.ExprString(s.Expr): true}
		for k := range alreadyConfined {
			sub[k] = true
		}
		p.block(s.Body, sub)
	case *ast.IfStmt:
		p.block(s.Then, alreadyConfined)
		if s.Else != nil {
			p.block(s.Else, alreadyConfined)
		}
	case *ast.WhileStmt:
		p.block(s.Body, alreadyConfined)
	case *ast.Block:
		p.block(s, alreadyConfined)
	}
}

// ---------------------------------------------------------------------
// Applying verdicts

// applyVerdicts rewrites b: failed planted confines are spliced out
// (their body statements inlined), successful ones kept; directly
// nested successful confines of an expression already confined by an
// enclosing kept confine are redundant and spliced; and adjacent kept
// confines of the same expression merge.
func applyVerdicts(b *ast.Block, verdict map[*ast.ConfineStmt]bool, active map[string]bool) {
	var out []ast.Stmt
	for _, s := range b.Stmts {
		cs, isConfine := s.(*ast.ConfineStmt)
		if !isConfine {
			applyVerdictsStmt(s, verdict, active)
			out = append(out, s)
			continue
		}
		ok, wasPlanted := verdict[cs]
		key := ast.ExprString(cs.Expr)
		switch {
		case wasPlanted && !ok:
			// Failed: splice the body statements inline.
			applyVerdicts(cs.Body, verdict, active)
			out = append(out, cs.Body.Stmts...)
		case wasPlanted && active[key]:
			// Redundant nesting under an enclosing confine of the
			// same expression: keep only the outermost.
			applyVerdicts(cs.Body, verdict, active)
			out = append(out, cs.Body.Stmts...)
		default:
			sub := map[string]bool{key: true}
			for k := range active {
				sub[k] = true
			}
			applyVerdicts(cs.Body, verdict, sub)
			// Adjacent merge: (confine e {s1}; confine e {s2}) =
			// confine e {s1; s2}.
			if len(out) > 0 {
				if prev, okPrev := out[len(out)-1].(*ast.ConfineStmt); okPrev &&
					prev.Inferred && cs.Inferred && ast.EqualExpr(prev.Expr, cs.Expr) {
					prev.Body.Stmts = append(prev.Body.Stmts, cs.Body.Stmts...)
					prev.Sp = prev.Sp.Union(cs.Sp)
					continue
				}
			}
			out = append(out, cs)
		}
	}
	b.Stmts = out
}

func applyVerdictsStmt(s ast.Stmt, verdict map[*ast.ConfineStmt]bool, active map[string]bool) {
	switch s := s.(type) {
	case *ast.BindStmt:
		applyVerdicts(s.Body, verdict, active)
	case *ast.IfStmt:
		applyVerdicts(s.Then, verdict, active)
		if s.Else != nil {
			applyVerdicts(s.Else, verdict, active)
		}
	case *ast.WhileStmt:
		applyVerdicts(s.Body, verdict, active)
	case *ast.Block:
		applyVerdicts(s, verdict, active)
	}
}
