package source

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestPositionResolution(t *testing.T) {
	f := NewFile("a.mc", "abc\ndef\n\nx")
	cases := []struct {
		off  Pos
		line int
		col  int
	}{
		{0, 1, 1},
		{2, 1, 3},
		{3, 1, 4}, // the newline itself
		{4, 2, 1},
		{7, 2, 4},
		{8, 3, 1},
		{9, 4, 1},
	}
	for _, c := range cases {
		pos := f.Position(c.off)
		if pos.Line != c.line || pos.Column != c.col {
			t.Errorf("offset %d: got %d:%d want %d:%d", c.off, pos.Line, pos.Column, c.line, c.col)
		}
		if pos.Name != "a.mc" {
			t.Errorf("name: %q", pos.Name)
		}
	}
}

func TestPositionInvalid(t *testing.T) {
	f := NewFile("a.mc", "x")
	pos := f.Position(NoPos)
	if pos.Line != 0 {
		t.Errorf("invalid position must have line 0, got %d", pos.Line)
	}
	if NoPos.IsValid() {
		t.Error("NoPos must be invalid")
	}
	if !Pos(0).IsValid() {
		t.Error("offset 0 must be valid")
	}
}

func TestLine(t *testing.T) {
	f := NewFile("a.mc", "first\nsecond\r\nthird")
	if got := f.Line(1); got != "first" {
		t.Errorf("line 1: %q", got)
	}
	if got := f.Line(2); got != "second" {
		t.Errorf("line 2 must strip CR: %q", got)
	}
	if got := f.Line(3); got != "third" {
		t.Errorf("line 3: %q", got)
	}
	if got := f.Line(4); got != "" {
		t.Errorf("out of range: %q", got)
	}
	if got := f.Line(0); got != "" {
		t.Errorf("zero: %q", got)
	}
}

func TestSpanUnion(t *testing.T) {
	a := Span{Start: 5, End: 10}
	b := Span{Start: 2, End: 7}
	u := a.Union(b)
	if u.Start != 2 || u.End != 10 {
		t.Errorf("union: %+v", u)
	}
	if got := a.Union(NoSpan); got != a {
		t.Errorf("union with invalid: %+v", got)
	}
	if got := NoSpan.Union(a); got != a {
		t.Errorf("invalid union with valid: %+v", got)
	}
	if NoSpan.IsValid() {
		t.Error("NoSpan must be invalid")
	}
}

func TestDiagnosticsAccumulation(t *testing.T) {
	f := NewFile("mod.mc", "let x = 1;\n")
	var ds Diagnostics
	if ds.HasErrors() {
		t.Error("zero value must have no errors")
	}
	ds.Notef(f, Span{0, 3}, "parse", "just a note")
	ds.Warnf(f, Span{0, 3}, "types", "suspicious %d", 42)
	if ds.HasErrors() {
		t.Error("notes and warnings are not errors")
	}
	ds.Errorf(f, Span{4, 5}, "restrict", "bad %s", "pointer")
	ds.Errorf(f, Span{6, 7}, "restrict", "worse")
	if !ds.HasErrors() || ds.ErrorCount() != 2 {
		t.Errorf("error count: %d", ds.ErrorCount())
	}
	out := ds.String()
	for _, want := range []string{"mod.mc:1:1", "note", "warning", "[restrict] bad pointer", "error"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestDiagnosticsErr(t *testing.T) {
	var ds Diagnostics
	if ds.Err() != nil {
		t.Error("no errors → nil")
	}
	f := NewFile("m.mc", "")
	ds.Errorf(f, NoSpan, "p", "first problem")
	if err := ds.Err(); err == nil || !strings.Contains(err.Error(), "first problem") {
		t.Errorf("single error: %v", err)
	}
	ds.Errorf(f, NoSpan, "p", "second problem")
	if err := ds.Err(); err == nil || !strings.Contains(err.Error(), "1 more error") {
		t.Errorf("multi error must summarize: %v", err)
	}
}

func TestSeverityString(t *testing.T) {
	if Note.String() != "note" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity strings")
	}
	if !strings.Contains(Severity(99).String(), "99") {
		t.Error("unknown severity must render its value")
	}
}

func TestDiagnosticWithoutFile(t *testing.T) {
	d := &Diagnostic{Severity: Error, Message: "free-floating"}
	if !strings.Contains(d.String(), "free-floating") {
		t.Errorf("render: %s", d)
	}
}

func TestExcerpt(t *testing.T) {
	f := NewFile("d.mc", "fun f() {\n    spin_unlock(&big);\n}\n")
	// Span covering "spin_unlock" on line 2 (offset 14, length 11).
	d := &Diagnostic{
		File: f, Span: Span{Start: 14, End: 25},
		Severity: Error, Phase: "qual", Message: "lock may be ⊤",
	}
	out := Excerpt(d)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("excerpt shape: %q", out)
	}
	if !strings.Contains(lines[0], "d.mc:2:5") {
		t.Errorf("head: %q", lines[0])
	}
	if !strings.Contains(lines[1], "spin_unlock(&big);") {
		t.Errorf("source line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "^~~~~~~~~~") {
		t.Errorf("caret: %q", lines[2])
	}
	// Caret must sit under the s of spin_unlock (column 5 → 4 spaces
	// after the 4-space indent).
	if !strings.HasPrefix(lines[2], "        ^") {
		t.Errorf("caret alignment: %q", lines[2])
	}
}

func TestExcerptDegradesGracefully(t *testing.T) {
	d := &Diagnostic{Severity: Error, Message: "floating"}
	if Excerpt(d) != d.String() {
		t.Error("no file: one-line form")
	}
	f := NewFile("x.mc", "ab\n")
	d2 := &Diagnostic{File: f, Span: NoSpan, Severity: Error, Message: "nospan"}
	if Excerpt(d2) != d2.String() {
		t.Error("no span: one-line form")
	}
	// Span wider than the line clamps.
	d3 := &Diagnostic{File: f, Span: Span{Start: 0, End: 99}, Severity: Error, Message: "wide"}
	out := Excerpt(d3)
	if strings.Count(out, "~") > 1 {
		t.Errorf("caret must clamp to the line: %q", out)
	}
}

func TestRenderAll(t *testing.T) {
	f := NewFile("m.mc", "let x = 1;\n")
	var ds Diagnostics
	ds.Errorf(f, Span{0, 3}, "p", "first")
	ds.Errorf(f, Span{4, 5}, "p", "second")
	out := ds.RenderAll()
	if strings.Count(out, "let x = 1;") != 2 {
		t.Errorf("both excerpts must show the line:\n%s", out)
	}
}

// TestExcerptClipsLongLine: a diagnostic on a very long line echoes a
// bounded window around its span, marks each cut with "…", keeps the
// caret under the span's first character, and stays valid UTF-8 when a
// cut lands inside a multi-byte character. (Caret padding counts bytes,
// as columns do, so the caret check is for ASCII lines only.)
func TestExcerptClipsLongLine(t *testing.T) {
	long := strings.Repeat("(", 1_000_000) + "1" + strings.Repeat(")", 1_000_000)
	mb := strings.Repeat("⊤", 400) + "x" + strings.Repeat("⊤", 400)
	for _, tc := range []struct {
		name, line     string
		start, end     int
		leadCut, trail bool
	}{
		{"middle", long, 1020, 1021, true, true},
		{"start", long, 0, 5, false, true},
		{"end", long, len(long) - 1, len(long), true, false},
		{"multibyte", mb, strings.IndexByte(mb, 'x'), strings.IndexByte(mb, 'x') + 1, true, true},
	} {
		f := NewFile("p.mc", tc.line+"\n")
		d := &Diagnostic{File: f, Span: Span{Start: Pos(tc.start), End: Pos(tc.end)},
			Severity: Error, Phase: "parse", Message: "nesting too deep"}
		out := Excerpt(d)
		if len(out) >= 1024 {
			t.Errorf("%s: excerpt is %d bytes, want under 1 KB", tc.name, len(out))
		}
		if !utf8.ValidString(out) {
			t.Errorf("%s: excerpt is not valid UTF-8", tc.name)
		}
		lines := strings.Split(out, "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: excerpt shape: %q", tc.name, out)
		}
		src := []rune(strings.TrimPrefix(lines[1], "    "))
		if got := strings.HasPrefix(string(src), "…"); got != tc.leadCut {
			t.Errorf("%s: leading cut mark = %v, want %v", tc.name, got, tc.leadCut)
		}
		if got := strings.HasSuffix(string(src), "…"); got != tc.trail {
			t.Errorf("%s: trailing cut mark = %v, want %v", tc.name, got, tc.trail)
		}
		if tc.line == mb {
			continue
		}
		caret := strings.IndexByte(lines[2], '^') - 4
		want, _ := utf8.DecodeRuneInString(tc.line[tc.start:])
		if caret < 0 || caret >= len(src) || src[caret] != want {
			t.Errorf("%s: caret at column %d does not sit under %q:\n%s", tc.name, caret, want, out)
		}
	}
}
