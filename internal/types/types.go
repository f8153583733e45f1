// Package types implements MiniC's standard type system — the
// qualifier- and location-free types the paper assumes have already
// been checked before alias and effect inference runs ("we assume
// that type checking has already been carried out for the underlying
// standard types of the language", Section 4).
//
// The checker resolves names, computes a standard type for every
// expression, classifies place (lvalue) expressions, and enforces the
// structural rules of the language:
//
//   - locks are second-class: they live in storage and are handled
//     only by address (&lv of lock type); lock values cannot be read,
//     copied or assigned;
//   - arrays and structs are storage, not values: they are indexed,
//     field-selected or addressed, never copied;
//   - let binds values (int or ref); mutation happens only through
//     refs, array elements, struct fields and scalar globals.
package types

import (
	"fmt"

	"localalias/internal/ast"
)

// ---------------------------------------------------------------------
// Standard types

// Type is a standard MiniC type.
type Type interface {
	String() string
	typ()
}

// Prim is int, unit or lock.
type Prim struct{ Kind ast.PrimKind }

// Ref is a pointer to a cell holding Elem.
type Ref struct{ Elem Type }

// Array is Size cells holding Elem.
type Array struct {
	Elem Type
	Size int
}

// Named is a declared struct type.
type Named struct{ Decl *ast.StructDecl }

func (t *Prim) String() string  { return t.Kind.String() }
func (t *Ref) String() string   { return "ref " + t.Elem.String() }
func (t *Array) String() string { return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Size) }
func (t *Named) String() string { return t.Decl.Name }

func (*Prim) typ()  {}
func (*Ref) typ()   {}
func (*Array) typ() {}
func (*Named) typ() {}

// Shared primitive type instances.
var (
	IntType  = &Prim{Kind: ast.PrimInt}
	UnitType = &Prim{Kind: ast.PrimUnit}
	LockType = &Prim{Kind: ast.PrimLock}
)

// Equal reports structural equality (structs are nominal; array sizes
// are ignored, matching the alias analysis's inability to distinguish
// elements).
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case *Prim:
		b, ok := b.(*Prim)
		return ok && a.Kind == b.Kind
	case *Ref:
		b, ok := b.(*Ref)
		return ok && Equal(a.Elem, b.Elem)
	case *Array:
		b, ok := b.(*Array)
		return ok && Equal(a.Elem, b.Elem)
	case *Named:
		b, ok := b.(*Named)
		return ok && a.Decl == b.Decl
	default:
		return false
	}
}

// IsScalar reports whether t is a first-class value type (int or ref).
func IsScalar(t Type) bool {
	switch t := t.(type) {
	case *Prim:
		return t.Kind == ast.PrimInt
	case *Ref:
		return true
	default:
		return false
	}
}

// IsLock reports whether t is the lock type.
func IsLock(t Type) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == ast.PrimLock
}

// IsUnit reports whether t is unit.
func IsUnit(t Type) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == ast.PrimUnit
}

// ---------------------------------------------------------------------
// Symbols and checker results

// SymKind classifies a resolved name.
type SymKind int

// The symbol kinds.
const (
	SymGlobal SymKind = iota // module-level storage
	SymParam                 // function parameter (a bound value)
	SymLet                   // let-bound value (DeclStmt or BindStmt)
	SymFun                   // function
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymParam:
		return "param"
	case SymLet:
		return "let"
	case SymFun:
		return "fun"
	default:
		return "sym(?)"
	}
}

// Symbol is one resolved definition.
type Symbol struct {
	Name string
	Kind SymKind
	// Type is the value type for params/lets, the storage type for
	// globals.
	Type Type
	// Def is the defining node (*ast.GlobalDecl, *ast.Param,
	// *ast.DeclStmt, *ast.BindStmt, or *ast.FunDecl).
	Def ast.Node
}

// FunSig is a function's checked signature.
type FunSig struct {
	Decl    *ast.FunDecl
	Name    string
	Params  []Type
	Result  Type
	Builtin bool
}

// PkgSig is the exported type surface of a separately-checked module:
// the signatures of its exportable functions, keyed by name.
type PkgSig struct {
	Name string
	Funs map[string]*FunSig
}

// ImportSigs maps import paths to the exported surface of the named
// modules, as supplied by the linker (internal/modgraph). A nil map
// resolves nothing: every import declaration then reports
// "package not found".
type ImportSigs map[string]*PkgSig

// Exportable reports whether sig can cross a module boundary: every
// parameter and the result must be built from int/unit/lock/ref only.
// Module-local struct names would be meaningless to importers, so
// functions mentioning them stay module-private.
func Exportable(sig *FunSig) bool {
	for _, p := range sig.Params {
		if !portable(p) {
			return false
		}
	}
	return portable(sig.Result)
}

func portable(t Type) bool {
	switch t := t.(type) {
	case *Prim:
		return true
	case *Ref:
		return portable(t.Elem)
	case *Array:
		return portable(t.Elem)
	default: // *Named, nil
		return false
	}
}

// Exports returns the package signature a module offers to importers:
// its exportable non-builtin functions. name is the module's package
// name (the path importers use).
func (in *Info) Exports(name string) *PkgSig {
	ps := &PkgSig{Name: name, Funs: make(map[string]*FunSig)}
	for fname, sig := range in.Funs {
		if !sig.Builtin && sig.Decl != nil && Exportable(sig) {
			ps.Funs[fname] = sig
		}
	}
	return ps
}

// Info holds everything the checker learned. Later phases key their
// own tables off the same AST nodes.
type Info struct {
	Prog *ast.Program
	// ExprTypes maps every checked expression to its standard type.
	// For place expressions this is the content type of the place.
	ExprTypes map[ast.Expr]Type
	// IsPlace records which expressions were checked as places
	// (lvalues): globals, derefs, index and field expressions.
	IsPlace map[ast.Expr]bool
	// Uses resolves every variable occurrence to its symbol.
	Uses map[*ast.VarExpr]*Symbol
	// Binders maps each binding node (Param, DeclStmt, BindStmt) to
	// the symbol it introduces.
	Binders map[ast.Node]*Symbol
	// StructAllocs marks NewExpr nodes that allocate a struct (their
	// Init is a type name, not an expression).
	StructAllocs map[*ast.NewExpr]*ast.StructDecl
	// Funs maps function names to signatures (including builtins).
	Funs map[string]*FunSig
	// Structs maps struct names to declarations.
	Structs map[string]*ast.StructDecl
	// Globals maps global names to symbols.
	Globals map[string]*Symbol
	// Imports maps each declared import path to the resolved package
	// signature; entries are nil when resolution failed (the error is
	// reported at the import declaration).
	Imports map[string]*PkgSig
}

// TypeOf returns the checked type of e, or nil.
func (in *Info) TypeOf(e ast.Expr) Type { return in.ExprTypes[e] }

// CloneExpr returns a deep copy of the checked expression e and
// records for every node of the copy what in holds for the node it
// copies: its type, its place classification and, for variables, its
// symbol. The copy must be placed where e's names resolve to the same
// symbols; it then reads as if the checker had visited it.
func (in *Info) CloneExpr(e ast.Expr) ast.Expr {
	c := ast.CloneExpr(e)
	var orig []ast.Node
	ast.Inspect(e, func(n ast.Node) bool {
		orig = append(orig, n)
		return true
	})
	i := 0
	ast.Inspect(c, func(n ast.Node) bool {
		o := orig[i]
		i++
		ce, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		oe := o.(ast.Expr)
		if t, ok := in.ExprTypes[oe]; ok {
			in.ExprTypes[ce] = t
		}
		if in.IsPlace[oe] {
			in.IsPlace[ce] = true
		}
		switch n := n.(type) {
		case *ast.VarExpr:
			if sym, ok := in.Uses[o.(*ast.VarExpr)]; ok {
				in.Uses[n] = sym
			}
		case *ast.NewExpr:
			if sd, ok := in.StructAllocs[o.(*ast.NewExpr)]; ok {
				in.StructAllocs[n] = sd
			}
		}
		return true
	})
	return c
}

// ChangeOp describes one state-changing builtin — an instance of
// CQUAL's change_type primitive [15]. Every ChangeOp takes a single
// "ref lock" argument whose pointed-to state it flips: Acquire ops
// require the resource released and take it; release ops require it
// held and release it.
type ChangeOp struct {
	Name    string
	Acquire bool
	// Release is the matching op's name (for diagnostics).
	Counterpart string
}

// ChangeOps lists the change_type instances: the spin-lock pair of
// the Section 7 experiment plus an interrupt-flag pair, showing the
// framework is protocol-generic.
func ChangeOps() map[string]ChangeOp {
	return map[string]ChangeOp{
		"spin_lock":   {Name: "spin_lock", Acquire: true, Counterpart: "spin_unlock"},
		"spin_unlock": {Name: "spin_unlock", Acquire: false, Counterpart: "spin_lock"},
		"irq_save":    {Name: "irq_save", Acquire: true, Counterpart: "irq_restore"},
		"irq_restore": {Name: "irq_restore", Acquire: false, Counterpart: "irq_save"},
	}
}

// changeOps is the shared instance used by the predicates below.
var changeOps = ChangeOps()

// Builtins returns the builtin function signatures shared by every
// module: the change_type instances, the opaque work() routine, and
// print.
func Builtins() map[string]*FunSig {
	out := map[string]*FunSig{
		"work": {
			Name:    "work",
			Params:  nil,
			Result:  UnitType,
			Builtin: true,
		},
		"print": {
			Name:    "print",
			Params:  []Type{IntType},
			Result:  UnitType,
			Builtin: true,
		},
	}
	for name := range changeOps {
		out[name] = &FunSig{
			Name:    name,
			Params:  []Type{&Ref{Elem: LockType}},
			Result:  UnitType,
			Builtin: true,
		}
	}
	return out
}

// IsLockOp reports whether name is a state-changing builtin (a
// change_type call in the experiment's terminology).
func IsLockOp(name string) bool {
	_, ok := changeOps[name]
	return ok
}

// LookupChangeOp returns the ChangeOp for name.
func LookupChangeOp(name string) (ChangeOp, bool) {
	op, ok := changeOps[name]
	return op, ok
}
