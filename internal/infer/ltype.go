// Package infer implements the alias-and-effect inference of the
// paper's Figure 3 over MiniC, together with the conditional
// constraints of restrict inference (Section 5) and confine inference
// (Section 6).
//
// The inferencer assumes standard type checking (package types) has
// succeeded. It walks every function once, building located types —
// standard types decorated with abstract locations ρ — and a
// constraint system over effect variables:
//
//   - type equalities are solved eagerly by unification (Figure 4a
//     embodied as LType.unify, with the location equalities they
//     imply performed on the shared locs.Store);
//   - locs(τ) and locs(Γ) are memoized as effect variables ε_τ and
//     ε_Γ exactly as Section 4 prescribes, so they are never
//     recomputed by traversal;
//   - (Down) is applied once per function (Section 3.1): the latent
//     effect of f is body ∩ (ε_Γf ∪ ε_τresult);
//   - restrict introduces a fresh ρ′ and the checks ρ ∉ L₂ and
//     ρ′ ∉ locs(Γ, τ₁, τ₂); in inference mode these become the
//     conditional constraints of the let-or-restrict rule;
//   - confine adds the referential-transparency premises of the
//     confine? rule over read/write/alloc effects.
package infer

import (
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
	"localalias/internal/types"
)

// LKind is the shape of a located type node.
type LKind uint8

// The located type kinds.
const (
	LInt LKind = iota
	LUnit
	LLock
	LRef
	LArray
	LStruct
)

func (k LKind) String() string {
	switch k {
	case LInt:
		return "int"
	case LUnit:
		return "unit"
	case LLock:
		return "lock"
	case LRef:
		return "ref"
	case LArray:
		return "array"
	case LStruct:
		return "struct"
	default:
		return fmt.Sprintf("lkind(%d)", uint8(k))
	}
}

// LType is a located type: a standard type whose ref targets, array
// elements and struct fields carry abstract locations. LTypes form a
// possibly-cyclic graph (recursive structs) and are unified with a
// union-find, so always navigate via find().
type LType struct {
	parent *LType
	rank   int8

	kind LKind
	// cell is the pointed-to cell (LRef) or the shared element cell
	// (LArray).
	cell locs.Loc
	// elem is the content type (LRef, LArray).
	elem *LType
	// decl/fields/fcells describe a struct instance: fcells[i] is the
	// storage location of field i, fields[i] its content type.
	decl   *ast.StructDecl
	fields []*LType
	fcells []locs.Loc

	// tvar is ε_τ, the memoized locs(τ) effect variable.
	tvar effects.Var
}

func (t *LType) find() *LType {
	for t.parent != nil {
		if t.parent.parent != nil {
			t.parent = t.parent.parent
		}
		t = t.parent
	}
	return t
}

// Kind returns the canonical node's kind.
func (t *LType) Kind() LKind { return t.find().kind }

// Cell returns the target/element cell of a ref or array type.
func (t *LType) Cell() locs.Loc { return t.find().cell }

// Elem returns the content type of a ref or array type.
func (t *LType) Elem() *LType { return t.find().elem }

// TVar returns ε_τ for the canonical node.
func (t *LType) TVar() effects.Var { return t.find().tvar }

// String renders the canonical shape (cycle-safe, depth-limited).
func (t *LType) String() string { return t.str(4) }

func (t *LType) str(depth int) string {
	t = t.find()
	if depth == 0 {
		return "..."
	}
	switch t.kind {
	case LInt:
		return "int"
	case LUnit:
		return "unit"
	case LLock:
		return "lock"
	case LRef:
		return fmt.Sprintf("ref ρ%d %s", t.cell, t.elem.str(depth-1))
	case LArray:
		return fmt.Sprintf("%s[]@ρ%d", t.elem.str(depth-1), t.cell)
	case LStruct:
		return "struct " + t.decl.Name
	default:
		return "?"
	}
}

// ---------------------------------------------------------------------
// Construction

// storageMode says what kind of locations a located type's cells get.
type storageMode int

const (
	// modePlaceholder: cells are origin-free placeholders (parameter
	// and result types; ref targets in general).
	modePlaceholder storageMode = iota
	// modeGlobal: cells are single storage origins (module globals).
	modeGlobal
	// modeHeap: cells are storage conservatively assumed to be
	// allocated many times (new-sites), hence never linear.
	modeHeap
)

// builder creates located types for one inferencer run.
type builder struct {
	ls  *locs.Store
	sys *effects.System

	// diags/file receive internal-error diagnostics (unification
	// mismatches that standard checking should have prevented); site
	// is the span of the construct currently being unified, set by
	// the inferencer before each top-level unify call. internal
	// counts the diagnostics recorded.
	diags    *source.Diagnostics
	file     *source.File
	site     source.Span
	internal int

	// structReg resolves struct names in field types.
	structReg map[string]*ast.StructDecl

	intT, unitT, lockT *LType

	// cellsMade collects the cells created by the most recent
	// instantiate call (used to emit alloc effects for struct
	// allocation).
	cellsMade []locs.Loc

	// slab chunk-allocates LType nodes: one make per chunk instead
	// of one per node. The first chunk is sized by the caller, later
	// ones hold 256 nodes. Chunks are never reallocated (a full chunk
	// is replaced by a fresh one), so returned pointers stay valid.
	slab []LType
}

// internalErrf records an internal-error diagnostic at the span of
// the construct currently being unified and marks the run as failed
// (Result.InternalErrors). Inputs that are malformed in a way
// standard checking misses fail their module, not the process.
func (b *builder) internalErrf(format string, args ...any) {
	b.internal++
	if b.diags != nil {
		b.diags.Errorf(b.file, b.site, "infer",
			"internal error: "+format+" (standard checking should have rejected this program)",
			args...)
	}
}

// newBuilder returns a builder whose first slab chunk holds nodes
// LType nodes.
func newBuilder(ls *locs.Store, sys *effects.System, nodes int) *builder {
	b := &builder{ls: ls, sys: sys, slab: make([]LType, 0, nodes)}
	b.intT = b.newNode(LInt, "int")
	b.unitT = b.newNode(LUnit, "unit")
	b.lockT = b.newNode(LLock, "lock")
	return b
}

// newNode allocates a node with its ε_τ variable.
func (b *builder) newNode(k LKind, name string) *LType {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]LType, 0, 256)
	}
	b.slab = append(b.slab, LType{kind: k, cell: locs.NoLoc, tvar: b.sys.FreshN("τ(", name, ")")})
	return &b.slab[len(b.slab)-1]
}

// cellFor makes a location according to mode.
func (b *builder) cellFor(mode storageMode, name string) locs.Loc {
	var l locs.Loc
	switch mode {
	case modeGlobal:
		l = b.ls.FreshStorage(name)
	case modeHeap:
		l = b.ls.FreshStorage(name)
		b.ls.MarkMulti(l)
	default:
		l = b.ls.Fresh(name)
	}
	b.cellsMade = append(b.cellsMade, l)
	return l
}

// arrayCellFor makes an element location: always multi.
func (b *builder) arrayCellFor(mode storageMode, name string) locs.Loc {
	var l locs.Loc
	if mode == modePlaceholder {
		l = b.ls.Fresh(name)
	} else {
		l = b.ls.FreshStorage(name)
	}
	b.ls.MarkMulti(l)
	b.cellsMade = append(b.cellsMade, l)
	return l
}

// build converts a standard type to a located type. mode applies to
// the cells owned by the type itself (array elements, struct fields);
// ref targets are always placeholders — what a pointer aliases is
// discovered by unification, not declared.
//
// inProgress ties the knot for recursive structs: each build call
// tree instantiates a given struct declaration at most once, so
// "struct node { next: ref node; }" yields a finite cyclic graph.
func (b *builder) build(t types.Type, mode storageMode, name string, inProgress map[*ast.StructDecl]*LType) *LType {
	switch t := t.(type) {
	case *types.Prim:
		switch t.Kind {
		case ast.PrimInt:
			return b.intT
		case ast.PrimUnit:
			return b.unitT
		default:
			return b.lockT
		}
	case *types.Ref:
		n := b.newNode(LRef, name)
		n.cell = b.cellFor(modePlaceholder, "*"+name)
		n.elem = b.build(t.Elem, modePlaceholder, "*"+name, inProgress)
		b.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: n.cell}, n.tvar)
		b.sys.AddVarIncl(n.elem.TVar(), n.tvar)
		return n
	case *types.Array:
		n := b.newNode(LArray, name)
		n.cell = b.arrayCellFor(mode, name+"[]")
		n.elem = b.build(t.Elem, mode, name+"[]", inProgress)
		b.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: n.cell}, n.tvar)
		b.sys.AddVarIncl(n.elem.TVar(), n.tvar)
		return n
	case *types.Named:
		if inProgress == nil {
			inProgress = make(map[*ast.StructDecl]*LType)
		}
		if existing := inProgress[t.Decl]; existing != nil {
			return existing
		}
		n := b.newNode(LStruct, t.Decl.Name)
		n.decl = t.Decl
		inProgress[t.Decl] = n
		defer delete(inProgress, t.Decl)
		for _, f := range t.Decl.Fields {
			fname := name + "." + f.Name
			fc := b.cellFor(mode, fname)
			ft := b.build(b.resolveSyntactic(f.Type), mode, fname, inProgress)
			n.fcells = append(n.fcells, fc)
			n.fields = append(n.fields, ft)
			b.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: fc}, n.tvar)
			b.sys.AddVarIncl(ft.TVar(), n.tvar)
		}
		return n
	default:
		return b.intT
	}
}

// resolveSyntactic is a minimal syntactic→standard conversion for
// field types; unknown names were already rejected by the standard
// checker, so lookups go through the registry set by the inferencer.
func (b *builder) resolveSyntactic(t ast.TypeExpr) types.Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return types.IntType
		case ast.PrimUnit:
			return types.UnitType
		default:
			return types.LockType
		}
	case *ast.NamedType:
		if d := b.structReg[t.Name]; d != nil {
			return &types.Named{Decl: d}
		}
		return types.IntType
	case *ast.RefType:
		return &types.Ref{Elem: b.resolveSyntactic(t.Elem)}
	case *ast.ArrayType:
		return &types.Array{Elem: b.resolveSyntactic(t.Elem), Size: t.Size}
	default:
		return types.IntType
	}
}

// ---------------------------------------------------------------------
// Unification (Figure 4a)

// unify merges two located types. Standard checking guarantees the
// shapes agree; a mismatch indicates an internal error, reported as a
// positioned diagnostic (the module fails; the process must not — a
// panic here used to take down whole corpus runs). The union is
// performed before recursing into components, which makes unification
// terminate on cyclic struct graphs.
func (b *builder) unify(a, c *LType) {
	a, c = a.find(), c.find()
	if a == c {
		return
	}
	if a.kind != c.kind {
		b.internalErrf("cannot unify %s (%s) with %s (%s)", a, a.kind, c, c.kind)
		return
	}
	winner, loser := a, c
	if winner.rank < loser.rank {
		winner, loser = loser, winner
	}
	if winner.rank == loser.rank {
		winner.rank++
	}
	loser.parent = winner
	// ε_τ of both classes must denote the same set from now on.
	b.sys.AddVarIncl(loser.tvar, winner.tvar)
	b.sys.AddVarIncl(winner.tvar, loser.tvar)

	switch winner.kind {
	case LRef, LArray:
		b.ls.Unify(winner.cell, loser.cell)
		b.unify(winner.elem, loser.elem)
	case LStruct:
		if winner.decl != loser.decl {
			b.internalErrf("cannot unify distinct struct types %s and %s",
				winner.decl.Name, loser.decl.Name)
			return
		}
		for i := range winner.fields {
			b.ls.Unify(winner.fcells[i], loser.fcells[i])
			b.unify(winner.fields[i], loser.fields[i])
		}
	}
}
