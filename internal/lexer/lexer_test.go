package lexer

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"localalias/internal/drivergen"

	"localalias/internal/source"
	"localalias/internal/token"
)

func scan(t *testing.T, src string) ([]Token, *source.Diagnostics) {
	t.Helper()
	var diags source.Diagnostics
	toks := ScanAll(source.NewFile("test.mc", src), &diags)
	return toks, &diags
}

func kinds(toks []Token) []token.Kind {
	var ks []token.Kind
	for _, t := range toks {
		ks = append(ks, t.Kind)
	}
	return ks
}

func TestScanEmpty(t *testing.T) {
	toks, diags := scan(t, "")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	if len(toks) != 1 || toks[0].Kind != token.EOF {
		t.Fatalf("want single EOF, got %v", kinds(toks))
	}
}

func TestScanKeywordsAndIdents(t *testing.T) {
	toks, diags := scan(t, "let restrict confine in new fun foo bar_2 _x ref")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	want := []token.Kind{
		token.KwLet, token.KwRestrict, token.KwConfine, token.KwIn,
		token.KwNew, token.KwFun, token.Ident, token.Ident, token.Ident,
		token.KwRef, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d: got %v want %v", i, got[i], want[i])
		}
	}
	if toks[6].Lit != "foo" || toks[7].Lit != "bar_2" || toks[8].Lit != "_x" {
		t.Errorf("identifier spellings wrong: %q %q %q", toks[6].Lit, toks[7].Lit, toks[8].Lit)
	}
}

func TestScanOperators(t *testing.T) {
	toks, diags := scan(t, "+ - * / % & && || ! = == != < <= > >= -> . ( ) [ ] { } , ; : ?")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	want := []token.Kind{
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Amp, token.AndAnd, token.OrOr, token.Not, token.Assign,
		token.Eq, token.NotEq, token.Less, token.LessEq, token.Greater,
		token.GreatEq, token.Arrow, token.Dot, token.LParen, token.RParen,
		token.LBrack, token.RBrack, token.LBrace, token.RBrace,
		token.Comma, token.Semi, token.Colon, token.Question, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count: got %d want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestScanMaximalMunch(t *testing.T) {
	// "a&&b" must be AndAnd, "a&b" must be Amp, "a->b" Arrow not Minus+Greater.
	toks, _ := scan(t, "a&&b a&b a->b a-b")
	want := []token.Kind{
		token.Ident, token.AndAnd, token.Ident,
		token.Ident, token.Amp, token.Ident,
		token.Ident, token.Arrow, token.Ident,
		token.Ident, token.Minus, token.Ident,
		token.EOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tok %d: got %v want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestScanNumbers(t *testing.T) {
	toks, diags := scan(t, "0 42 123456")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	if toks[0].Lit != "0" || toks[1].Lit != "42" || toks[2].Lit != "123456" {
		t.Errorf("number literals wrong: %q %q %q", toks[0].Lit, toks[1].Lit, toks[2].Lit)
	}
}

func TestScanMalformedNumber(t *testing.T) {
	toks, diags := scan(t, "12ab")
	if !diags.HasErrors() {
		t.Fatal("want error for malformed number")
	}
	if toks[0].Kind != token.Illegal {
		t.Errorf("want Illegal token, got %v", toks[0].Kind)
	}
}

func TestScanComments(t *testing.T) {
	toks, diags := scan(t, "a // line comment\nb /* block\ncomment */ c")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	want := []token.Kind{token.Ident, token.Ident, token.Ident, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestScanUnterminatedComment(t *testing.T) {
	_, diags := scan(t, "a /* never closed")
	if !diags.HasErrors() {
		t.Fatal("want error for unterminated comment")
	}
}

func TestScanIllegalChar(t *testing.T) {
	toks, diags := scan(t, "a $ b")
	if !diags.HasErrors() {
		t.Fatal("want error for illegal character")
	}
	if toks[1].Kind != token.Illegal {
		t.Errorf("want Illegal, got %v", toks[1].Kind)
	}
}

func TestScanPositions(t *testing.T) {
	f := source.NewFile("pos.mc", "let x = 10;\nlet y = 2;\n")
	var diags source.Diagnostics
	toks := ScanAll(f, &diags)
	// Token "10" starts at line 1 column 9.
	var ten Token
	for _, tk := range toks {
		if tk.Lit == "10" {
			ten = tk
		}
	}
	pos := f.Position(ten.Span.Start)
	if pos.Line != 1 || pos.Column != 9 {
		t.Errorf("position of 10: got %v, want 1:9", pos)
	}
	// Second "let" is line 2 column 1.
	lets := 0
	for _, tk := range toks {
		if tk.Kind == token.KwLet {
			lets++
			if lets == 2 {
				pos := f.Position(tk.Span.Start)
				if pos.Line != 2 || pos.Column != 1 {
					t.Errorf("position of second let: got %v, want 2:1", pos)
				}
			}
		}
	}
	if lets != 2 {
		t.Fatalf("expected 2 let tokens, got %d", lets)
	}
}

func TestScanWholeProgram(t *testing.T) {
	src := `
struct dev { l: lock; count: int; }
global locks: lock[16];
fun do_with_lock(l: ref lock) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
`
	_, diags := scan(t, src)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
}

// scanAllocBytes returns the heap bytes a ScanAll of f allocates: the
// least of three runs, so an allocation elsewhere in the process
// cannot be charged to it.
func scanAllocBytes(f *source.File) (uint64, []Token) {
	var least uint64
	var toks []Token
	for i := 0; i < 3; i++ {
		var diags source.Diagnostics
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		toks = ScanAll(f, &diags)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least, toks
}

// TestScanAllReserveBounded: the token slice is reserved from the
// source length, but a huge source of comments reserves nothing for
// them (a comment-only source costs the one EOF token, as growing by
// appending would), and a few tokens in much comment reserve at most
// maxReserve.
func TestScanAllReserveBounded(t *testing.T) {
	comments := strings.Repeat("// nothing to see here, just a comment\n", 32<<20/39)
	n, toks := scanAllocBytes(source.NewFile("c.mc", comments))
	if len(toks) != 1 || toks[0].Kind != token.EOF {
		t.Fatalf("comment-only source scanned to %d tokens", len(toks))
	}
	if one := uint64(unsafe.Sizeof(Token{})); n > 2*one {
		t.Errorf("comment-only source: ScanAll allocated %d bytes, want at most %d (one token)", n, 2*one)
	}
	_, toks = scanAllocBytes(source.NewFile("t.mc", "fun f() {}\n"+comments))
	if cap(toks) > maxReserve {
		t.Errorf("few tokens in a huge source reserved %d tokens, cap is %d", cap(toks), maxReserve)
	}
	// Corpus source fits its reservation without regrowing.
	for _, spec := range drivergen.Corpus() {
		src := spec.Source()
		toks := ScanAll(source.NewFile(spec.Name, src), &source.Diagnostics{})
		if want := min(len(src)/3+2, maxReserve); cap(toks) != want {
			t.Fatalf("%s: %d tokens regrew a reservation of %d for %d bytes", spec.Name, len(toks), want, len(src))
		}
	}
}
