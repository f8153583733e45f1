package infer

import (
	"fmt"
	"strconv"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Options selects between pure checking and the inference modes.
type Options struct {
	// InferRestrictLets treats every ref-typed remainder-scope let
	// (DeclStmt) as a let-or-restrict candidate (Section 5).
	InferRestrictLets bool
	// InferRestrictParams treats every ref-typed parameter as a
	// restrict candidate (the C99 "restrict parameter" usage of the
	// paper's introduction).
	InferRestrictParams bool
	// OptionalConfines marks ConfineStmt nodes to be treated as
	// confine? candidates (conditional constraints) rather than hard
	// annotations. Scope inference (package confine) populates it.
	OptionalConfines map[*ast.ConfineStmt]bool
	// NoDown disables the (Down) rule at function boundaries — the
	// ablation discussed in Section 3.1, where effects on dead
	// temporary storage leak into latent effects and spuriously
	// defeat restrict.
	NoDown bool
	// ImportEffects maps qualified imported-function names ("pkg.fn")
	// to per-formal effect masks computed from the callee's solved
	// latent effect by the cross-module pass (internal/modgraph).
	// Qualified calls to functions absent from the map — or when the
	// map is nil — are havoc'd: read+write+alloc on every location
	// reachable from their ref arguments.
	ImportEffects map[string][]effects.Mask
	// LiberalRestrictEffect switches explicit restrict/confine
	// annotations to the liberal semantics of Section 5 (consistent
	// with C99): restricting a location is an effect on it only if
	// the restricted copy is actually used. The default is the strict
	// rule of Figure 2, where the conclusion always carries {ρ}.
	// Inference always uses the liberal rule (that is the
	// let-or-restrict construction), so optimality of inference is
	// stated — and tested — against this mode.
	LiberalRestrictEffect bool
}

// CandKind classifies an inference candidate.
type CandKind int

// The candidate kinds.
const (
	CandLet CandKind = iota
	CandParam
	CandConfine
)

func (k CandKind) String() string {
	switch k {
	case CandLet:
		return "let"
	case CandParam:
		return "param"
	case CandConfine:
		return "confine"
	default:
		return "cand(?)"
	}
}

// Candidate is one let-or-restrict or confine? candidate. After
// solving, Succeeded reports the verdict.
type Candidate struct {
	Kind CandKind
	Node ast.Node // *ast.DeclStmt, *ast.Param or *ast.ConfineStmt
	Name string   // binder name or confined expression rendering
	Site source.Span
	Rho  locs.Loc // the outer location ρ
	RhoP locs.Loc // the fresh location ρ′
}

// Binding records a restrict/confine scope (explicit or candidate)
// for the flow-sensitive qualifier analysis: within Node's scope the
// location RhoP is a linear copy of Rho.
type Binding struct {
	Node     ast.Node
	Rho      locs.Loc
	RhoP     locs.Loc
	Explicit bool
	Cand     *Candidate // nil when Explicit
}

// Result carries everything later phases need.
type Result struct {
	Prog  *ast.Program
	TInfo *types.Info
	Locs  *locs.Store
	Sys   *effects.System

	// LTypes is the located value type of every inferred expression.
	LTypes map[ast.Expr]*LType
	// PlaceCells is the storage cell of every place expression.
	PlaceCells map[ast.Expr]locs.Loc
	// Bindings maps restrict/confine nodes (and candidate params and
	// lets) to their ρ/ρ′ pair.
	Bindings map[ast.Node]*Binding
	// Candidates lists inference candidates in source order.
	Candidates []*Candidate
	// FunEff is each function's latent (post-Down) effect variable;
	// FunBody is the pre-Down body effect.
	FunEff  map[string]effects.Var
	FunBody map[string]effects.Var
	// SymLTypes is the located type of each symbol.
	SymLTypes map[*types.Symbol]*LType

	// InternalErrors counts internal-error diagnostics recorded
	// during inference (unification mismatches that standard checking
	// should have prevented). Non-zero means the run's constraint
	// system is unreliable and the module must be failed.
	InternalErrors int
}

// TargetOf returns the pointed-to cell of a ref-typed expression
// (canonical), e.g. the lock cell of a spin_lock argument.
func (r *Result) TargetOf(e ast.Expr) (locs.Loc, bool) {
	lt := r.LTypes[e]
	if lt == nil || lt.Kind() != LRef {
		return locs.NoLoc, false
	}
	return r.Locs.Find(lt.Cell()), true
}

// Succeeded reports a candidate's post-solve verdict: the candidate
// became a restrict/confine iff its two locations stayed distinct.
func (r *Result) Succeeded(c *Candidate) bool {
	return !r.Locs.Same(c.Rho, c.RhoP)
}

// Run performs alias-and-effect inference over a standard-typed
// program. Structural problems (e.g. a confined expression containing
// a call) are reported to diags; constraint violations are NOT — they
// are produced by solving (package solve) and interpreted by the
// restrict/confine packages.
func Run(tinfo *types.Info, diags *source.Diagnostics, opts Options) *Result {
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	// Inference mints LType nodes, effect variables and inclusions in
	// proportion to the typed expressions. Over the Section 7 corpus a
	// module needs at most 0.30 nodes, 1.0 variables (solving
	// included), 1.5 variable inclusions and 0.63 atom inclusions per
	// typed expression; sizing to those bounds avoids regrowth on the
	// constraint-building hot path without reserving much unused.
	n := len(tinfo.ExprTypes)
	sys.Reserve(n+n/8, n+n*5/8)
	b := newBuilder(ls, sys, n/3+8)
	b.structReg = tinfo.Structs
	b.diags = diags
	b.file = tinfo.Prog.File
	b.site = source.NoSpan

	inf := &inferencer{
		b:     b,
		ls:    ls,
		sys:   sys,
		tinfo: tinfo,
		diags: diags,
		opts:  opts,
		res: &Result{
			Prog:       tinfo.Prog,
			TInfo:      tinfo,
			Locs:       ls,
			Sys:        sys,
			LTypes:     make(map[ast.Expr]*LType, len(tinfo.ExprTypes)),
			PlaceCells: make(map[ast.Expr]locs.Loc, len(tinfo.IsPlace)),
			Bindings:   make(map[ast.Node]*Binding, len(tinfo.Binders)),
			FunEff:     make(map[effKey]effects.Var),
			FunBody:    make(map[effKey]effects.Var),
			SymLTypes:  make(map[*types.Symbol]*LType, len(tinfo.Binders)),
		},
	}
	inf.run()
	inf.res.InternalErrors = b.internal
	return inf.res
}

type effKey = string

type funLInfo struct {
	sig    *types.FunSig
	params []*LType // original (pre-restrict) parameter types
	result *LType
	eff    effects.Var // latent effect (post-Down)
	body   effects.Var // body effect (pre-Down)
	keep   effects.Var // locs(Γ_f, τ_result) for (Down)
}

type globalLInfo struct {
	sym *types.Symbol
	// cell is the storage cell for scalar globals (NoLoc for
	// aggregates, whose storage lives inside content).
	cell    locs.Loc
	content *LType
}

// confCtx is an active confine scope: within it, occurrences of expr
// denote the effectful variable x_π′ of type xT.
type confCtx struct {
	expr ast.Expr
	xT   *LType
	pi   effects.Var
}

type inferencer struct {
	b     *builder
	ls    *locs.Store
	sys   *effects.System
	tinfo *types.Info
	diags *source.Diagnostics
	opts  Options
	res   *Result

	globals  map[string]*globalLInfo
	funs     map[string]*funLInfo
	imported map[string]*LType // shared result type per imported callee
	envG     effects.Var       // ε of the global environment

	cur      *funLInfo
	confines []*confCtx
}

func (inf *inferencer) errorf(sp source.Span, format string, args ...any) {
	inf.diags.Errorf(inf.tinfo.Prog.File, sp, "infer", format, args...)
}

func (inf *inferencer) run() {
	prog := inf.tinfo.Prog

	// Globals: build storage once, collect ε_Γ(globals).
	inf.globals = make(map[string]*globalLInfo)
	inf.imported = make(map[string]*LType)
	inf.envG = inf.sys.Fresh("Γ(globals)")
	for _, g := range prog.Globals {
		sym := inf.tinfo.Globals[g.Name]
		if sym == nil {
			continue
		}
		gi := &globalLInfo{sym: sym, cell: locs.NoLoc}
		switch sym.Type.(type) {
		case *types.Array, *types.Named:
			gi.content = inf.b.build(sym.Type, modeGlobal, g.Name, nil)
		default:
			gi.cell = inf.ls.FreshStorage(g.Name)
			gi.content = inf.b.build(sym.Type, modePlaceholder, g.Name, nil)
			inf.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: gi.cell}, inf.envG)
		}
		inf.globals[g.Name] = gi
		inf.res.SymLTypes[sym] = gi.content
		inf.sys.AddVarIncl(gi.content.TVar(), inf.envG)
	}

	// Function signatures (phase A): locate parameter and result
	// types, allocate latent-effect variables.
	inf.funs = make(map[string]*funLInfo)
	for _, f := range prog.Funs {
		sig := inf.tinfo.Funs[f.Name]
		if sig == nil || sig.Decl != f {
			continue
		}
		fi := &funLInfo{
			sig:  sig,
			eff:  inf.sys.FreshN("eff(", f.Name, ")"),
			body: inf.sys.FreshN("body(", f.Name, ")"),
			keep: inf.sys.FreshN("keep(", f.Name, ")"),
		}
		for i, pt := range sig.Params {
			fi.params = append(fi.params, inf.b.build(pt, modePlaceholder, f.Name+"."+f.Params[i].Name, nil))
		}
		fi.result = inf.b.build(sig.Result, modePlaceholder, f.Name+".ret", nil)
		// keep = ε_Γf ∪ ε_τresult: globals, parameters, result.
		inf.sys.AddVarIncl(inf.envG, fi.keep)
		for _, p := range fi.params {
			inf.sys.AddVarIncl(p.TVar(), fi.keep)
		}
		inf.sys.AddVarIncl(fi.result.TVar(), fi.keep)
		inf.funs[f.Name] = fi
		inf.res.FunEff[f.Name] = fi.eff
		inf.res.FunBody[f.Name] = fi.body

		// (Down) at the function boundary (Section 3.1), or the
		// ablated direct flow.
		if inf.opts.NoDown {
			inf.sys.AddVarIncl(fi.body, fi.eff)
		} else {
			inf.sys.AddInclAt(effects.Inter{
				L: effects.VarRef{V: fi.body},
				R: effects.VarRef{V: fi.keep},
			}, fi.eff, f.Span())
		}
	}

	// Bodies (phase B).
	for _, f := range prog.Funs {
		fi := inf.funs[f.Name]
		if fi == nil {
			continue
		}
		inf.inferFun(f, fi)
	}
}

// extendEnv returns a fresh ε_Γ variable covering env plus t, per the
// incremental ε_Γ scheme of Section 4.
func (inf *inferencer) extendEnv(env effects.Var, t *LType, what string) effects.Var {
	nv := inf.sys.FreshN("Γ+", what, "")
	inf.sys.AddVarIncl(env, nv)
	inf.sys.AddVarIncl(t.TVar(), nv)
	return nv
}

func (inf *inferencer) inferFun(f *ast.FunDecl, fi *funLInfo) {
	inf.cur = fi
	env := inf.envG

	// Bind parameters: explicitly restrict-qualified ones get hard
	// checks; otherwise they are optionally restrict candidates.
	for i, p := range f.Params {
		sym := inf.tinfo.Binders[p]
		if sym == nil {
			continue
		}
		orig := fi.params[i]
		bound := orig
		if p.Restrict && orig.Kind() == LRef {
			rho := orig.Cell()
			rhoP := inf.ls.FreshRestricted(p.Name + "'")
			xT := inf.b.mkRef(rhoP, orig.Elem(), p.Name+"'")
			esc := inf.paramEscapeVar(fi, i, orig, p.Name)
			inf.sys.AddNotIn(rho, fi.body, p.Sp,
				fmt.Sprintf("restrict parameter %q: an alias of the restricted location is used in the body", p.Name))
			inf.sys.AddNotIn(rhoP, esc, p.Sp,
				fmt.Sprintf("restrict parameter %q: the restricted pointer escapes the function", p.Name))
			// Restricting the caller's location is itself an effect;
			// in strict mode the kind-agnostic write(ρ) in the latent
			// effect also conservatively covers every access made
			// through the restricted copy, so callers' own checks see
			// it without conditional relays (keeping restrict-only
			// systems on the Figure 5 fast path).
			inf.restrictEffect(p.Name, rho, rhoP, fi.body, fi.eff)
			inf.res.Bindings[p] = &Binding{Node: p, Rho: rho, RhoP: rhoP, Explicit: true}
			bound = xT
		} else if inf.opts.InferRestrictParams && orig.Kind() == LRef {
			rho := orig.Cell()
			rhoP := inf.ls.FreshRestricted(p.Name + "'")
			xT := inf.b.mkRef(rhoP, orig.Elem(), p.Name+"'")
			cand := &Candidate{
				Kind: CandParam,
				Node: p,
				Name: p.Name,
				Site: p.Sp,
				Rho:  rho,
				RhoP: rhoP,
			}
			esc := inf.paramEscapeVar(fi, i, orig, p.Name)
			inf.addCandidateConds(cand, fi.body, esc, fi.eff)
			inf.res.Candidates = append(inf.res.Candidates, cand)
			inf.res.Bindings[p] = &Binding{Node: p, Rho: rho, RhoP: rhoP, Cand: cand}
			bound = xT
		}
		inf.res.SymLTypes[sym] = bound
		env = inf.extendEnv(env, bound, p.Name)
	}

	inf.walkStmts(f.Body.Stmts, fi.body, env)
	inf.cur = nil
}

// paramEscapeVar builds the escape set for a (restricted) parameter:
// globals, the other parameters' original types, the content type,
// and the result type.
func (inf *inferencer) paramEscapeVar(fi *funLInfo, i int, orig *LType, name string) effects.Var {
	esc := inf.sys.FreshN("esc(", name, ")")
	inf.sys.AddVarIncl(inf.envG, esc)
	for j, q := range fi.params {
		if j != i {
			inf.sys.AddVarIncl(q.TVar(), esc)
		}
	}
	inf.sys.AddVarIncl(orig.Elem().TVar(), esc)
	inf.sys.AddVarIncl(fi.result.TVar(), esc)
	return esc
}

// addRelayConds surfaces effects on a restricted copy ρ′ as effects
// on the underlying ρ in out ("X(ρ′) ∈ L₂ ⇒ {X(ρ)} ⊆ π").
func (inf *inferencer) addRelayConds(kind, name string, rhoP locs.Loc, l2 effects.Var, rho locs.Loc, out effects.Var) {
	// One conditional per effect kind; the reason is shared (these are
	// emitted for every candidate, so avoid formatting three times).
	reason := kind + " " + strconv.Quote(name) + ": effect on restricted copy surfaces on ρ"
	for _, k := range []effects.Kind{effects.Read, effects.Write, effects.Alloc} {
		inf.sys.AddCond(&effects.Cond{
			Trigger: effects.AtomIn{Kind: k, Loc: rhoP, V: l2},
			Actions: []effects.Action{effects.ActAddAtom{
				A: effects.Atom{Kind: k, Loc: rho}, V: out,
			}},
			Reason: reason,
		})
	}
}

// restrictEffect emits the "restricting ρ is itself an effect" part
// of an explicit annotation's conclusion. Strict mode (Figure 2) adds
// {ρ} unconditionally; liberal mode (Section 5, matching C99 and the
// inference rule) adds it only when the restricted copy is used.
func (inf *inferencer) restrictEffect(name string, rho, rhoP locs.Loc, l2, sink effects.Var) {
	if inf.opts.LiberalRestrictEffect {
		inf.addRelayConds("restrict", name, rhoP, l2, rho, sink)
		return
	}
	inf.sys.AddAtom(effects.Atom{Kind: effects.Write, Loc: rho}, sink)
}

// addCandidateConds emits the let-or-restrict conditional constraints
// of Section 5 for a candidate with body effect l2 and escape set
// esc; relayed effects land in out.
func (inf *inferencer) addCandidateConds(c *Candidate, l2 effects.Var, esc effects.Var, out effects.Var) {
	fail := []effects.Action{effects.ActUnify{A: c.Rho, B: c.RhoP}}
	head := c.Kind.String() + " " + strconv.Quote(c.Name)
	inf.sys.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: c.Rho, V: l2},
		Actions: fail,
		Reason:  head + ": outer location accessed within the scope",
	})
	inf.sys.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: c.RhoP, V: esc},
		Actions: fail,
		Reason:  head + ": restricted pointer escapes its scope",
	})
	// (ρ′ ∈ L₂) ⇒ {X(ρ)} ⊆ ε: the conditional restrict effect.
	inf.addRelayConds(c.Kind.String(), c.Name, c.RhoP, l2, c.Rho, out)
}

// ---------------------------------------------------------------------
// Statements

func (inf *inferencer) walkStmts(stmts []ast.Stmt, sink effects.Var, env effects.Var) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ast.DeclStmt:
			// The remainder of the block is the binder's scope.
			rest := stmts[i+1:]
			inf.declStmt(s, rest, sink, env)
			return
		default:
			env = inf.stmt(s, sink, env)
		}
	}
}

// declStmt handles "let x = e;" over the remainder scope: a plain
// let, a pre-marked restrict (checking mode), or a let-or-restrict
// candidate (inference mode).
func (inf *inferencer) declStmt(s *ast.DeclStmt, rest []ast.Stmt, sink, env effects.Var) {
	initT := inf.expr(s.Init, sink, env)
	sym := inf.tinfo.Binders[s]
	if sym == nil {
		return
	}

	isRef := initT.Kind() == LRef
	switch {
	case s.Restrict && isRef:
		// Explicit (or previously inferred) restrict over the
		// remainder scope: hard checks.
		rho := initT.Cell()
		rhoP := inf.ls.FreshRestricted(s.Name + "'")
		xT := inf.b.mkRef(rhoP, initT.Elem(), s.Name+"'")
		inf.res.SymLTypes[sym] = xT
		inf.res.Bindings[s] = &Binding{Node: s, Rho: rho, RhoP: rhoP, Explicit: true}

		l2 := inf.sys.FreshN("L2(", s.Name, ")")
		esc := inf.escapeVar(env, initT, s.Name)
		env2 := inf.extendEnv(env, xT, s.Name)
		inf.walkStmts(rest, l2, env2)
		inf.sys.AddVarIncl(l2, sink)
		inf.sys.AddNotIn(rho, l2, s.Sp,
			fmt.Sprintf("restrict %q: an alias of the restricted location is used within its scope", s.Name))
		inf.sys.AddNotIn(rhoP, esc, s.Sp,
			fmt.Sprintf("restrict %q: the restricted pointer escapes its scope", s.Name))
		inf.restrictEffect(s.Name, rho, rhoP, l2, sink)

	case inf.opts.InferRestrictLets && isRef && !s.Restrict:
		rho := initT.Cell()
		rhoP := inf.ls.FreshRestricted(s.Name + "'")
		xT := inf.b.mkRef(rhoP, initT.Elem(), s.Name+"'")
		inf.res.SymLTypes[sym] = xT
		cand := &Candidate{
			Kind: CandLet,
			Node: s,
			Name: s.Name,
			Site: s.Sp,
			Rho:  rho,
			RhoP: rhoP,
		}
		l2 := inf.sys.FreshN("L2(", s.Name, ")")
		esc := inf.escapeVar(env, initT, s.Name)
		env2 := inf.extendEnv(env, xT, s.Name)
		inf.walkStmts(rest, l2, env2)
		inf.sys.AddVarIncl(l2, sink)
		inf.addCandidateConds(cand, l2, esc, sink)
		inf.res.Candidates = append(inf.res.Candidates, cand)
		inf.res.Bindings[s] = &Binding{Node: s, Rho: rho, RhoP: rhoP, Cand: cand}

	default:
		// Plain let.
		inf.res.SymLTypes[sym] = initT
		env2 := inf.extendEnv(env, initT, s.Name)
		inf.walkStmts(rest, sink, env2)
	}
}

// escapeVar builds locs(Γ, τ₁, τ₂): the environment at the binder,
// the content type of the bound pointer, and the function result.
func (inf *inferencer) escapeVar(env effects.Var, refT *LType, name string) effects.Var {
	esc := inf.sys.FreshN("esc(", name, ")")
	inf.sys.AddVarIncl(env, esc)
	inf.sys.AddVarIncl(refT.Elem().TVar(), esc)
	if inf.cur != nil {
		inf.sys.AddVarIncl(inf.cur.result.TVar(), esc)
	}
	return esc
}

// stmt infers one non-binder statement and returns the (possibly
// extended) environment. Only DeclStmt extends environments, and it
// is handled by walkStmts, so env passes through unchanged here.
func (inf *inferencer) stmt(s ast.Stmt, sink, env effects.Var) effects.Var {
	switch s := s.(type) {
	case *ast.BindStmt:
		inf.bindStmt(s, sink, env)
	case *ast.ConfineStmt:
		inf.confineStmt(s, sink, env)
	case *ast.AssignStmt:
		cell, content := inf.place(s.LHS, sink, env)
		rhsT := inf.expr(s.RHS, sink, env)
		if content != nil && content.Kind() == rhsT.Kind() {
			inf.b.site = s.Span()
			inf.b.unify(content, rhsT)
		}
		if cell != locs.NoLoc {
			inf.sys.AddAtom(effects.Atom{Kind: effects.Write, Loc: cell}, sink)
		}
	case *ast.ExprStmt:
		inf.expr(s.X, sink, env)
	case *ast.IfStmt:
		inf.expr(s.Cond, sink, env)
		inf.walkStmts(s.Then.Stmts, sink, env)
		if s.Else != nil {
			inf.walkStmts(s.Else.Stmts, sink, env)
		}
	case *ast.WhileStmt:
		inf.expr(s.Cond, sink, env)
		inf.walkStmts(s.Body.Stmts, sink, env)
	case *ast.ReturnStmt:
		if s.X != nil {
			rt := inf.expr(s.X, sink, env)
			if inf.cur != nil && rt.Kind() == inf.cur.result.Kind() {
				inf.b.site = s.X.Span()
				inf.b.unify(rt, inf.cur.result)
			}
		}
	case *ast.Block:
		inf.walkStmts(s.Stmts, sink, env)
	}
	return env
}

// bindStmt handles the explicitly scoped binders.
func (inf *inferencer) bindStmt(s *ast.BindStmt, sink, env effects.Var) {
	initT := inf.expr(s.Init, sink, env)
	sym := inf.tinfo.Binders[s]
	if sym == nil {
		return
	}
	if s.Kind == ast.BindLet || initT.Kind() != LRef {
		// (Let): evaluate body in the extended environment.
		inf.res.SymLTypes[sym] = initT
		env2 := inf.extendEnv(env, initT, s.Name)
		inf.walkStmts(s.Body.Stmts, sink, env2)
		return
	}
	// (Restrict), explicit: hard checks.
	rho := initT.Cell()
	rhoP := inf.ls.FreshRestricted(s.Name + "'")
	xT := inf.b.mkRef(rhoP, initT.Elem(), s.Name+"'")
	inf.res.SymLTypes[sym] = xT
	inf.res.Bindings[s] = &Binding{Node: s, Rho: rho, RhoP: rhoP, Explicit: true}

	l2 := inf.sys.FreshN("L2(", s.Name, ")")
	esc := inf.escapeVar(env, initT, s.Name)
	env2 := inf.extendEnv(env, xT, s.Name)
	inf.walkStmts(s.Body.Stmts, l2, env2)
	inf.sys.AddVarIncl(l2, sink)
	inf.sys.AddNotIn(rho, l2, s.Sp,
		fmt.Sprintf("restrict %q: an alias of the restricted location is used within its scope", s.Name))
	inf.sys.AddNotIn(rhoP, esc, s.Sp,
		fmt.Sprintf("restrict %q: the restricted pointer escapes its scope", s.Name))
	inf.restrictEffect(s.Name, rho, rhoP, l2, sink)
}

// confineStmt handles "confine e { ... }", explicit or optional
// (confine?).
func (inf *inferencer) confineStmt(s *ast.ConfineStmt, sink, env effects.Var) {
	if call := findCall(s.Expr); call != nil {
		inf.errorf(call.Span(),
			"confined expression %q contains a call; confine requires identifiers, field accesses, indexes and dereferences only (§6.1)",
			ast.ExprString(s.Expr))
	}
	name := ast.ExprString(s.Expr)

	l1 := inf.sys.FreshN("L1(", name, ")")
	e1T := inf.expr(s.Expr, l1, env)
	inf.sys.AddVarIncl(l1, sink)
	if e1T.Kind() != LRef {
		// Standard checking already reported; just walk the body.
		inf.walkStmts(s.Body.Stmts, sink, env)
		return
	}

	rho := e1T.Cell()
	rhoP := inf.ls.FreshRestricted(name + "'")
	xT := inf.b.mkRef(rhoP, e1T.Elem(), name+"'")
	pi := inf.sys.FreshN("π'(", name, ")")
	l2 := inf.sys.FreshN("L2(", name, ")")
	esc := inf.escapeVar(env, e1T, name)

	inf.confines = append(inf.confines, &confCtx{expr: s.Expr, xT: xT, pi: pi})
	inf.walkStmts(s.Body.Stmts, l2, env)
	inf.confines = inf.confines[:len(inf.confines)-1]
	inf.sys.AddVarIncl(l2, sink)

	optional := inf.opts.OptionalConfines[s]
	if optional {
		cand := &Candidate{
			Kind: CandConfine,
			Node: s,
			Name: name,
			Site: s.Sp,
			Rho:  rho,
			RhoP: rhoP,
		}
		fail := []effects.Action{
			effects.ActUnify{A: rho, B: rhoP},
			effects.ActIncl{From: l1, To: pi},
		}
		mk := func(t effects.Trigger, why string) {
			inf.sys.AddCond(&effects.Cond{Trigger: t, Actions: fail,
				Reason: fmt.Sprintf("confine %q: %s", name, why)})
		}
		mk(effects.LocIn{Loc: rho, V: l2}, "outer location accessed within the scope")
		mk(effects.LocIn{Loc: rhoP, V: esc}, "confined pointer escapes its scope")
		mk(effects.KindIn{Kind: effects.Write, V: l1}, "confined expression has a write effect")
		mk(effects.KindIn{Kind: effects.Alloc, V: l1}, "confined expression has an alloc effect")
		mk(effects.PairIn{KindA: effects.Read, VA: l1, KindB: effects.Write, VB: l2},
			"a location read by the confined expression is written in the scope")
		mk(effects.PairIn{KindA: effects.Read, VA: l1, KindB: effects.Alloc, VB: l2},
			"a location read by the confined expression is allocated in the scope")
		inf.addRelayConds("confine", name, rhoP, l2, rho, sink)
		inf.res.Candidates = append(inf.res.Candidates, cand)
		inf.res.Bindings[s] = &Binding{Node: s, Rho: rho, RhoP: rhoP, Cand: cand}
		return
	}

	// Explicit confine: hard checks (the confine rule derived from
	// confine? by requiring ρ ≠ ρ′, Section 6.1).
	inf.res.Bindings[s] = &Binding{Node: s, Rho: rho, RhoP: rhoP, Explicit: true}
	inf.sys.AddNotIn(rho, l2, s.Sp,
		fmt.Sprintf("confine %q: an alias of the confined location is used within its scope", name))
	inf.sys.AddNotIn(rhoP, esc, s.Sp,
		fmt.Sprintf("confine %q: the confined pointer escapes its scope", name))
	inf.sys.AddKindNotIn(effects.Write, l1, s.Sp,
		fmt.Sprintf("confine %q: the confined expression must have no write effects", name))
	inf.sys.AddKindNotIn(effects.Alloc, l1, s.Sp,
		fmt.Sprintf("confine %q: the confined expression must have no alloc effects", name))
	inf.sys.AddPairNotIn(effects.Read, l1, effects.Write, l2, s.Sp,
		fmt.Sprintf("confine %q: a location it reads is written within the scope", name))
	inf.sys.AddPairNotIn(effects.Read, l1, effects.Alloc, l2, s.Sp,
		fmt.Sprintf("confine %q: a location it reads is allocated within the scope", name))
	inf.restrictEffect(name, rho, rhoP, l2, sink)
}

// findCall returns the first call expression within e, or nil.
func findCall(e ast.Expr) ast.Expr {
	var hit ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			hit = c
			return false
		}
		return true
	})
	return hit
}
