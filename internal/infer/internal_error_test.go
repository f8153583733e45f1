package infer

// Regression tests for the fault-containment fix: unification
// mismatches (which standard checking should prevent, but malformed
// inputs or checker bugs can still produce) used to panic and kill
// the process. They now record positioned internal-error diagnostics
// naming both types, and mark the run failed via InternalErrors.

import (
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
	"localalias/internal/types"
)

func newTestBuilder(t *testing.T) (*builder, *source.Diagnostics, *source.File) {
	t.Helper()
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	b := newBuilder(ls, sys, 0)
	diags := &source.Diagnostics{}
	file := source.NewFile("bad.mc", "fun f(): int { return 0; }\n")
	b.diags, b.file = diags, file
	b.site = source.Span{Start: 15, End: 24} // the return statement
	return b, diags, file
}

func TestUnifyKindMismatchIsDiagnosed(t *testing.T) {
	b, diags, _ := newTestBuilder(t)
	intT := b.build(types.IntType, modePlaceholder, "x", nil)
	refT := b.build(&types.Ref{Elem: types.IntType}, modePlaceholder, "y", nil)

	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("unify panicked: %v", p)
			}
		}()
		b.unify(intT, refT)
	}()

	if b.internal != 1 {
		t.Fatalf("internal = %d, want 1", b.internal)
	}
	if !diags.HasErrors() {
		t.Fatal("no diagnostic recorded")
	}
	d := diags.List[0]
	msg := d.String()
	// The diagnostic names both types and carries the source span.
	for _, want := range []string{"internal error", "int", "ref"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q lacks %q", msg, want)
		}
	}
	if d.Span.Start != 15 {
		t.Errorf("diagnostic span %+v, want start 15", d.Span)
	}
	if pos := d.File.Position(d.Span.Start); pos.Line != 1 || pos.Column != 16 {
		t.Errorf("position = %v, want 1:16", pos)
	}
}

func TestUnifyDistinctStructsIsDiagnosed(t *testing.T) {
	b, diags, _ := newTestBuilder(t)
	declA := &ast.StructDecl{Name: "a"}
	declB := &ast.StructDecl{Name: "b"}
	b.structReg = map[string]*ast.StructDecl{"a": declA, "b": declB}
	sa := b.build(&types.Named{Decl: declA}, modePlaceholder, "x", nil)
	sb := b.build(&types.Named{Decl: declB}, modePlaceholder, "y", nil)

	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("unify panicked: %v", p)
			}
		}()
		b.unify(sa, sb)
	}()

	if b.internal != 1 || !diags.HasErrors() {
		t.Fatalf("internal = %d, errors = %v", b.internal, diags.HasErrors())
	}
	msg := diags.List[0].String()
	for _, want := range []string{"internal error", "struct types a and b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q lacks %q", msg, want)
		}
	}
}
