package modgraph

import (
	"context"
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/core"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/types"
)

// runner executes the bottom-up pass in topological order. Each module
// runs after all its (acyclic, present) dependencies; the per-module
// work is the standard core pipeline plus summary export. A module's
// inputs are exactly its source, the options, and its dependencies'
// published APIs.
type runner struct {
	mods   map[string]*parsed
	cyclic map[string]bool
	opts   Options
	res    *Result
}

// depAPI returns the published API of dependency d, or nil when d is
// missing, failed, or summaries are disabled.
func (r *runner) depAPI(d string) *core.PackageAPI {
	if mr := r.res.Modules[d]; mr != nil {
		return mr.API
	}
	return nil
}

// depSigs returns the exported type surface of dependency d: the
// analyzed module's checked exports when available, else a parse-level
// extraction (the havoc fallback for failed deps and cycle members).
// Returns nil when d is not among the program's modules.
func (r *runner) depSigs(d string) *types.PkgSig {
	p := r.mods[d]
	if p == nil {
		return nil
	}
	if mr := r.res.Modules[d]; mr != nil && !mr.Failed() && mr.Module != nil && mr.Module.TInfo != nil {
		return mr.Module.TInfo.Exports(d)
	}
	return sigsFromParse(d, p.prog)
}

// analyze runs one module with its dependencies' summaries in scope
// and publishes the result.
func (r *runner) analyze(ctx context.Context, tr *faults.Trace, name string) {
	p := r.mods[name]
	mr := &ModuleResult{Name: name, Deps: p.deps}

	trace, parent := obs.SpanFromContext(ctx)
	span := trace.StartChild(parent, "module:"+name, "modgraph")
	defer func() {
		outcome := "analyzed"
		if mr.Err != nil {
			outcome = "failed"
		}
		span.End("module", name, "deps", fmt.Sprintf("%d", len(p.deps)), "outcome", outcome)
	}()

	// Build the import environment over the (sorted) dependency list.
	sigs := make(types.ImportSigs)
	effs := make(map[string][]effects.Mask)
	var trans [core.NumVariants]qual.Transfers
	for _, d := range p.deps {
		if r.mods[d] == nil {
			continue // unresolved: typecheck reports it
		}
		if ps := r.depSigs(d); ps != nil {
			sigs[d] = ps
		}
		if api := r.depAPI(d); api != nil && !r.opts.Havoc {
			for fn, masks := range api.Effects {
				effs[d+"."+fn] = masks
			}
			for v := 0; v < core.NumVariants; v++ {
				for fn, pts := range api.Transfers[v] {
					if trans[v] == nil {
						trans[v] = make(qual.Transfers)
					}
					trans[v][d+"."+fn] = pts
				}
			}
		}
	}

	r.res.Modules[name] = mr
	m, err := core.LoadModuleWith(name, p.src.Text, sigs, tr)
	mr.Module = m
	if err != nil {
		mr.Err = err
		return
	}
	lr, err := m.AnalyzeLockingCtx(ctx, core.LockingOptions{
		General:         r.opts.General,
		NoParams:        r.opts.NoParams,
		NoLets:          r.opts.NoLets,
		Memo:            r.opts.Memo,
		MemoCounters:    r.opts.MemoCounters,
		ImportEffects:   importEffects(effs, r.opts.Havoc),
		ImportTransfers: importTransfers(trans, r.opts.Havoc),
		ExportAPI:       !r.opts.Havoc,
	}, tr)
	if err != nil {
		mr.Err = fmt.Errorf("%s: %w", name, err)
		return
	}
	mr.Locking = lr
	mr.API = lr.API
	mr.Outcome = distill(m, lr)
}

// importEffects returns nil (full havoc) in havoc mode, and an empty
// non-nil map otherwise so that unknown callees still havoc while
// known ones apply their masks.
func importEffects(effs map[string][]effects.Mask, havoc bool) map[string][]effects.Mask {
	if havoc {
		return nil
	}
	return effs
}

func importTransfers(trans [core.NumVariants]qual.Transfers, havoc bool) [core.NumVariants]qual.Transfers {
	if havoc {
		return [core.NumVariants]qual.Transfers{}
	}
	return trans
}

// distill reduces a full locking result to its reported form:
// counts plus rendered findings per experiment variant.
func distill(m *core.Module, lr *core.LockingResult) *Outcome {
	out := &Outcome{
		Sites:   lr.NoConfine.NumSites,
		Planted: lr.Confine.Planted,
		Kept:    len(lr.Confine.Kept),
	}
	reports := [core.NumVariants]*qual.Report{
		core.VariantNoConfine:   lr.NoConfine,
		core.VariantWithConfine: lr.WithConfine,
		core.VariantAllStrong:   lr.AllStrong,
	}
	for v, rep := range reports {
		mo := ModeOutcome{Errors: []Finding{}}
		for _, e := range rep.Errors {
			mo.Errors = append(mo.Errors, Finding{
				Pos: m.Prog.File.Position(e.Site.Start).String(),
				Msg: e.String(),
			})
		}
		out.Modes[v] = mo
	}
	return out
}

// sigsFromParse extracts the exportable function surface of a module
// from its parse tree alone, without type checking: enough for
// importers of a failed module (cycle member, type error) to resolve
// calls into it and havoc their effects instead of failing
// themselves. Portable types mention no module-local struct names, so
// parse-level resolution agrees with the checker's on every function
// it admits.
func sigsFromParse(name string, prog *ast.Program) *PkgSigFromParse {
	ps := &types.PkgSig{Name: name, Funs: make(map[string]*types.FunSig)}
	for _, f := range prog.Funs {
		sig := &types.FunSig{Decl: f, Name: f.Name}
		ok := true
		for _, prm := range f.Params {
			t := portableType(prm.Type)
			if t == nil {
				ok = false
				break
			}
			sig.Params = append(sig.Params, t)
		}
		if !ok {
			continue
		}
		if sig.Result = portableType(f.Result); sig.Result == nil {
			continue
		}
		if _, dup := ps.Funs[f.Name]; !dup {
			ps.Funs[f.Name] = sig
		}
	}
	return ps
}

// PkgSigFromParse aliases types.PkgSig; the separate name documents
// call sites that run on unchecked surfaces.
type PkgSigFromParse = types.PkgSig

// portableType resolves a parse-level type expression to a checked
// type if it is portable (prim/ref/array only); nil result means
// non-portable. A nil expression is the implicit unit result.
func portableType(te ast.TypeExpr) types.Type {
	switch te := te.(type) {
	case nil:
		return &types.Prim{Kind: ast.PrimUnit}
	case *ast.PrimType:
		return &types.Prim{Kind: te.Kind}
	case *ast.RefType:
		elem := portableType(te.Elem)
		if elem == nil {
			return nil
		}
		return &types.Ref{Elem: elem}
	case *ast.ArrayType:
		elem := portableType(te.Elem)
		if elem == nil {
			return nil
		}
		return &types.Array{Elem: elem, Size: te.Size}
	default: // *ast.NamedType
		return nil
	}
}
