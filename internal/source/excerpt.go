package source

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// excerptWidth bounds how many bytes of the source line an excerpt
// echoes. A longer line is clipped to a window of this width around
// the span's start, each cut marked with "…", so a diagnostic on a
// megabyte-long line still renders in a few hundred bytes.
const excerptWidth = 160

// Excerpt renders a diagnostic with its source line and a caret span,
// gcc/rustc style:
//
//	driver.mc:6:5: error: [qual] spin_unlock: lock may be ⊤
//	    spin_unlock(&locks[i]);
//	    ^~~~~~~~~~~
//
// Lines longer than excerptWidth are clipped around the span.
// Diagnostics without a file or span degrade to the one-line form.
func Excerpt(d *Diagnostic) string {
	head := d.String()
	if d.File == nil || !d.Span.IsValid() {
		return head
	}
	pos := d.File.Position(d.Span.Start)
	line := d.File.Line(pos.Line)
	if line == "" {
		return head
	}
	col := pos.Column - 1 // byte offset of the span start in line
	prefix, suffix := "", ""
	if len(line) > excerptWidth {
		// Keep a quarter of the window as context before the span.
		lo := max(0, min(col-excerptWidth/4, len(line)-excerptWidth))
		hi := lo + excerptWidth
		for lo > 0 && !utf8.RuneStart(line[lo]) {
			lo++
		}
		for hi < len(line) && !utf8.RuneStart(line[hi]) {
			hi--
		}
		if lo > 0 {
			prefix = "…"
		}
		if hi < len(line) {
			suffix = "…"
		}
		line, col = line[lo:hi], col-lo
	}
	// Caret width: clamp the span to the (clipped) line.
	width := 1
	if d.Span.End > d.Span.Start {
		width = int(d.Span.End - d.Span.Start)
	}
	width = max(1, min(width, len(line)-col))
	marker := "^"
	if width > 1 {
		marker += strings.Repeat("~", width-1)
	}
	// Render tabs as single spaces so the caret aligns; the "…" cut
	// mark is one column wide.
	rendered := strings.ReplaceAll(line, "\t", " ")
	pad := col + utf8.RuneCountInString(prefix)
	return fmt.Sprintf("%s\n    %s%s%s\n    %s%s",
		head, prefix, rendered, suffix, strings.Repeat(" ", pad), marker)
}

// RenderAll renders every diagnostic with excerpts, one block per
// diagnostic.
func (ds *Diagnostics) RenderAll() string {
	var b strings.Builder
	for _, d := range ds.List {
		b.WriteString(Excerpt(d))
		b.WriteByte('\n')
	}
	return b.String()
}
