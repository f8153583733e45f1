package confine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
	"localalias/internal/types"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("t.mc", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %s", diags.String())
	}
	return prog
}

func runInfer(t *testing.T, src string, opts Options) (*ast.Program, *Result) {
	t.Helper()
	prog := parse(t, src)
	var diags source.Diagnostics
	res, err := InferAndApply(prog, &diags, opts)
	if err != nil {
		t.Fatalf("InferAndApply: %v\n%s", err, diags.String())
	}
	return prog, res
}

func countConfines(prog *ast.Program) int {
	n := 0
	ast.Inspect(prog, func(x ast.Node) bool {
		if _, ok := x.(*ast.ConfineStmt); ok {
			n++
		}
		return true
	})
	return n
}

func TestPlantPairsSameBlock(t *testing.T) {
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
    work();
    spin_unlock(&locks[i]);
}
`, Options{})
	if res.Planted != 1 {
		t.Errorf("planted: %d", res.Planted)
	}
	if len(res.Kept) != 1 {
		t.Errorf("kept: %d", len(res.Kept))
	}
	cs := findConfine(prog)
	if cs == nil || !cs.Inferred {
		t.Fatal("kept confine must be marked Inferred")
	}
	if len(cs.Body.Stmts) != 3 {
		t.Errorf("smallest sub-block must cover lock..unlock inclusive: %d stmts", len(cs.Body.Stmts))
	}
}

func findConfine(prog *ast.Program) *ast.ConfineStmt {
	var out *ast.ConfineStmt
	ast.Inspect(prog, func(x ast.Node) bool {
		if cs, ok := x.(*ast.ConfineStmt); ok && out == nil {
			out = cs
		}
		return true
	})
	return out
}

func TestPlantSmallestRange(t *testing.T) {
	// Statements before/after the pair must stay outside the confine.
	prog, _ := runInfer(t, `
global locks: lock[4];
global c: int;
fun f(i: int) {
    c = 1;
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    c = 2;
}
`, Options{})
	f := prog.Funs[0]
	if len(f.Body.Stmts) != 3 {
		t.Fatalf("outer block must keep 3 stmts (assign, confine, assign): %d\n%s",
			len(f.Body.Stmts), ast.String(prog))
	}
	if _, ok := f.Body.Stmts[1].(*ast.ConfineStmt); !ok {
		t.Errorf("middle stmt must be the confine")
	}
}

func TestPlantDistinctExprsNested(t *testing.T) {
	// Two interleaved pairs of different locks: the inner pair
	// confines within the outer one.
	prog, res := runInfer(t, `
global a: lock[4];
global b: lock[4];
fun f(i: int) {
    spin_lock(&a[i]);
    spin_lock(&b[i]);
    spin_unlock(&b[i]);
    spin_unlock(&a[i]);
}
`, Options{})
	if len(res.Kept) != 2 {
		t.Fatalf("both pairs must confine:\n%s", ast.String(prog))
	}
	if countConfines(prog) != 2 {
		t.Errorf("confines in tree: %d", countConfines(prog))
	}
	outer := findConfine(prog)
	innerFound := false
	ast.Inspect(outer.Body, func(x ast.Node) bool {
		if cs, ok := x.(*ast.ConfineStmt); ok && cs != outer {
			innerFound = true
		}
		return true
	})
	if !innerFound {
		t.Errorf("inner confine must nest inside the outer:\n%s", ast.String(prog))
	}
}

func TestPlantAcrossBranches(t *testing.T) {
	// Lock inside a branch, unlock after the join: both statements
	// "contain" a change_type of the same expression, so the outer
	// block pairs them.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int, c: int) {
    if (c > 0) {
        spin_lock(&locks[i]);
    } else {
        spin_lock(&locks[i]);
    }
    spin_unlock(&locks[i]);
}
`, Options{})
	if len(res.Kept) != 1 {
		t.Fatalf("cross-branch pair must confine:\n%s", ast.String(prog))
	}
	cs := findConfine(prog)
	if len(cs.Body.Stmts) != 2 {
		t.Errorf("confine must cover the if and the unlock:\n%s", ast.String(prog))
	}
}

func TestFailedCandidateUnwrapped(t *testing.T) {
	// The index is written inside the would-be scope: candidate fails
	// and the AST is restored to its original shape.
	src := `
global locks: lock[4];
global idx: int;
fun f() {
    spin_lock(&locks[idx]);
    idx = idx + 1;
    spin_unlock(&locks[idx]);
}
`
	orig := ast.String(parse(t, src))
	prog, res := runInfer(t, src, Options{})
	if res.Planted != 1 || res.Removed != 1 || len(res.Kept) != 0 {
		t.Fatalf("planted=%d removed=%d kept=%d", res.Planted, res.Removed, len(res.Kept))
	}
	if got := ast.String(prog); got != orig {
		t.Errorf("failed candidate must restore the tree:\n--- orig ---\n%s--- got ---\n%s", orig, got)
	}
}

func TestConfinableRejectsCalls(t *testing.T) {
	if confinable(mustExpr(t, "f(x)")) {
		t.Error("calls are not confinable")
	}
	if confinable(mustExpr(t, "&locks[g(i)]")) {
		t.Error("nested calls are not confinable")
	}
	if confinable(mustExpr(t, "new 3")) {
		t.Error("allocation is not confinable")
	}
	for _, ok := range []string{"&locks[i]", "p", "&d->l", "*pp", "&devs[i].l"} {
		if !confinable(mustExpr(t, ok)) {
			t.Errorf("%q must be confinable", ok)
		}
	}
}

func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	var diags source.Diagnostics
	e := parser.ParseExpr(src, &diags)
	if diags.HasErrors() {
		t.Fatalf("expr %q: %s", src, diags.String())
	}
	return e
}

func TestSingleOpNotPlanted(t *testing.T) {
	// A lone lock op cannot pair: nothing planted.
	_, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
}
`, Options{})
	if res.Planted != 0 {
		t.Errorf("planted: %d", res.Planted)
	}
}

func TestOpaqueSubBlocks(t *testing.T) {
	// Once a pair is wrapped, the heuristic treats the new sub-block
	// as containing no change_type: a third op of the same lock later
	// in the block cannot pair with the buried ones.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    work();
    work();
    spin_lock(&locks[i]);
}
`, Options{})
	// The first two wrap; the trailing lone lock stays outside. It
	// cannot pair with the opaque confine, so exactly one candidate.
	if res.Planted != 1 {
		t.Errorf("planted: %d\n%s", res.Planted, ast.String(prog))
	}
}

func TestExplicitConfineRespected(t *testing.T) {
	// A hand-written confine is not a candidate: it is checked, not
	// inferred, and never unwrapped.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    confine &locks[i] {
        spin_lock(&locks[i]);
        spin_unlock(&locks[i]);
    }
}
`, Options{})
	if res.Planted != 0 {
		t.Errorf("explicit confine must not be re-planted: %d", res.Planted)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	cs := findConfine(prog)
	if cs == nil || cs.Inferred {
		t.Error("explicit confine must survive, unmarked")
	}
}

func TestExplicitConfineViolationReported(t *testing.T) {
	prog := parse(t, `
global locks: lock[4];
global idx: int;
fun f() {
    confine &locks[idx] {
        spin_lock(&locks[idx]);
        idx = idx + 1;
        spin_unlock(&locks[idx]);
    }
}
`)
	var diags source.Diagnostics
	res, err := InferAndApply(prog, &diags, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("explicit confine over a mutated index must be reported")
	}
	if !strings.Contains(diags.String(), "confine") {
		t.Errorf("diags: %s", diags.String())
	}
}

func TestGeneralModeOutermost(t *testing.T) {
	// In general mode, enclosing scopes are also tried and the
	// outermost success wins: the pair sits inside an if, but the
	// enclosing function block is also a valid (larger) scope.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int, c: int) {
    if (c > 0) {
        spin_lock(&locks[i]);
        spin_unlock(&locks[i]);
    }
    work();
}
`, Options{General: true})
	if len(res.Kept) == 0 {
		t.Fatalf("general mode must keep a confine:\n%s", ast.String(prog))
	}
	if countConfines(prog) != 1 {
		t.Errorf("nested same-expression confines must prune to the outermost:\n%s",
			ast.String(prog))
	}
}

func TestLetsOptionThroughConfine(t *testing.T) {
	// Lets: let-or-restrict inference runs in the same pass and marks
	// the binding.
	prog, res := runInfer(t, `
global locks: lock[4];
fun f(i: int) {
    let l = &locks[i];
    spin_lock(l);
    spin_unlock(l);
}
`, Options{Lets: true})
	marked := false
	ast.Inspect(prog, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Restrict {
			marked = true
		}
		return true
	})
	if !marked {
		t.Errorf("let must be marked restrict:\n%s", ast.String(prog))
	}
	// And it shows up among the candidates.
	foundLet := false
	for _, c := range res.Infer.Candidates {
		if c.Kind.String() == "let" {
			foundLet = true
		}
	}
	if !foundLet {
		t.Error("let candidate missing")
	}
}

// TestPlantKeepsLetScope: a let between a lock pair that is used
// after the unlock must stay in scope, so the pair is not wrapped.
func TestPlantKeepsLetScope(t *testing.T) {
	prog, res := runInfer(t, `
struct dev { l: lock; v: int; }
fun f(d: ref dev): int {
    spin_lock(&d->l);
    let y = d->v;
    spin_unlock(&d->l);
    return y;
}
`, Options{Lets: true, Params: true})
	if res.Planted != 0 {
		t.Errorf("planted %d, want 0:\n%s", res.Planted, ast.String(prog))
	}
	// A let used only inside the range does not block the wrap.
	_, res = runInfer(t, `
struct dev { l: lock; v: int; }
fun f(d: ref dev): int {
    spin_lock(&d->l);
    let y = d->v;
    print(y);
    spin_unlock(&d->l);
    return 0;
}
`, Options{})
	if res.Planted != 1 {
		t.Errorf("planted %d, want 1", res.Planted)
	}
}

// TestPlantSkipsExprBoundInRange: a confined expression whose name is
// bound inside the range would name an unbound variable at the head
// of the confine, so the range is not wrapped.
func TestPlantSkipsExprBoundInRange(t *testing.T) {
	for _, general := range []bool{false, true} {
		prog, res := runInfer(t, `
struct dev { l: lock; v: int; }
fun f(p: ref dev) {
    let q = p in { spin_lock(&q->l); }
    let q = p in { spin_unlock(&q->l); }
}
`, Options{General: general, Lets: true, Params: true})
		if res.Planted != 0 {
			t.Errorf("general=%v: planted %d, want 0:\n%s", general, res.Planted, ast.String(prog))
		}
	}
}

// TestPlantedInfoMatchesFreshCheck is the differential test of the
// planter's Info extension: over the Section 7 corpus, progen
// programs and random lock programs, the Info the planter leaves
// behind must agree, expression for expression, with a fresh
// standard check of the planted program.
func TestPlantedInfoMatchesFreshCheck(t *testing.T) {
	type module struct{ name, src string }
	var mods []module
	for _, s := range drivergen.Corpus() {
		mods = append(mods, module{s.Name, s.Source()})
	}
	for i := 0; i < 200; i++ {
		mods = append(mods, module{fmt.Sprintf("progen%d", i), progen.Generate(int64(i))})
	}
	for i := 0; i < 200; i++ {
		mods = append(mods, module{fmt.Sprintf("locks%d", i), lockProgram(int64(i))})
	}
	planted := 0
	for _, m := range mods {
		for _, general := range []bool{false, true} {
			var diags source.Diagnostics
			prog := parser.Parse(m.name, m.src, &diags)
			info := types.Check(prog, &diags)
			if diags.HasErrors() {
				t.Fatalf("%s: %s\n%s", m.name, diags.String(), m.src)
			}
			p := &planter{general: general, info: info, planted: make(map[*ast.ConfineStmt]bool)}
			for _, f := range prog.Funs {
				p.block(f.Body, nil)
			}
			planted += len(p.planted)
			fresh := types.Check(prog, &diags)
			if diags.HasErrors() {
				t.Fatalf("%s general=%v: planted program fails checking: %s\n%s",
					m.name, general, diags.String(), ast.String(prog))
			}
			if err := sameInfo(prog, info, fresh); err != nil {
				t.Fatalf("%s general=%v: %v\n%s", m.name, general, err, ast.String(prog))
			}
		}
	}
	if planted == 0 {
		t.Fatal("no candidates planted: the differential compared nothing")
	}
}

// sameInfo compares got against the reference want on every
// expression of prog: equal types, equal place classification, and
// variables resolving to symbols with the same defining node.
func sameInfo(prog *ast.Program, got, want *types.Info) error {
	var err error
	ast.Inspect(prog, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || err != nil {
			return err == nil
		}
		gt, gok := got.ExprTypes[e]
		wt, wok := want.ExprTypes[e]
		switch {
		case gok != wok || (gok && !types.Equal(gt, wt)):
			err = fmt.Errorf("%s: type %v, fresh check %v", ast.ExprString(e), gt, wt)
		case got.IsPlace[e] != want.IsPlace[e]:
			err = fmt.Errorf("%s: place %v, fresh check %v", ast.ExprString(e), got.IsPlace[e], want.IsPlace[e])
		}
		if v, ok := e.(*ast.VarExpr); ok && err == nil {
			gs, ws := got.Uses[v], want.Uses[v]
			if (gs == nil) != (ws == nil) || (gs != nil && gs.Def != ws.Def) {
				err = fmt.Errorf("%s at %v: resolves differently from a fresh check", v.Name, v.Sp)
			}
		}
		return err == nil
	})
	return err
}

// lockProgram generates a random well-typed program whose lock pairs
// straddle lets, let-in bindings that shadow one another, and nested
// control flow: the shapes where wrapping a range could change what a
// name means.
func lockProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("struct dev { l: lock; v: int; }\nglobal locks: lock[4];\n")
	fresh := 0
	var block func(scope []string, binds []string, depth int)
	block = func(scope, binds []string, depth int) {
		lockExpr := func() string {
			devs := append([]string{"d1", "d2"}, binds...)
			if r.Intn(5) == 0 {
				return fmt.Sprintf("&locks[%d]", r.Intn(2))
			}
			return "&" + devs[r.Intn(len(devs))] + "->l"
		}
		for n := 2 + r.Intn(5); n > 0; n-- {
			switch k := r.Intn(10); {
			case k < 2:
				fmt.Fprintf(&b, "spin_lock(%s);\n", lockExpr())
			case k < 4:
				fmt.Fprintf(&b, "spin_unlock(%s);\n", lockExpr())
			case k < 5:
				fresh++
				name := fmt.Sprintf("y%d", fresh)
				fmt.Fprintf(&b, "let %s = d1->v;\n", name)
				scope = append(scope, name)
			case k < 6 && len(scope) > 0:
				fmt.Fprintf(&b, "print(%s);\n", scope[r.Intn(len(scope))])
			case k < 8 && depth < 3:
				fmt.Fprintf(&b, "let q = d%d in {\n", 1+r.Intn(2))
				block(append([]string(nil), scope...), append(binds[:len(binds):len(binds)], "q"), depth+1)
				b.WriteString("}\n")
			case k < 9 && depth < 3:
				b.WriteString("if (c > 0) {\n")
				block(append([]string(nil), scope...), binds, depth+1)
				b.WriteString("} else {\n")
				block(append([]string(nil), scope...), binds, depth+1)
				b.WriteString("}\n")
			case depth < 3:
				b.WriteString("while (c > 0) {\n")
				block(append([]string(nil), scope...), binds, depth+1)
				b.WriteString("}\n")
			}
		}
	}
	b.WriteString("fun f(d1: ref dev, d2: ref dev, c: int) {\n")
	block(nil, nil, 0)
	b.WriteString("}\n")
	return b.String()
}
