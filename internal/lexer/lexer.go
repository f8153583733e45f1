// Package lexer implements the MiniC scanner.
//
// The scanner is a conventional hand-written one-pass lexer producing
// token.Kind values with spans into the underlying source.File. Line
// comments (// ...) and block comments (/* ... */) are skipped.
package lexer

import (
	"localalias/internal/source"
	"localalias/internal/token"
)

// Token is one lexed token.
type Token struct {
	Kind token.Kind
	// Lit is the spelling for Ident and Int tokens and the unquoted
	// contents for String tokens, empty otherwise.
	Lit  string
	Span source.Span
}

// Lexer scans one file.
type Lexer struct {
	file  *source.File
	diags *source.Diagnostics

	src  string
	off  int // current reading offset
	next int // offset after current rune (bytes; MiniC is ASCII)
}

// New returns a Lexer over file, reporting malformed input to diags.
func New(file *source.File, diags *source.Diagnostics) *Lexer {
	return &Lexer{file: file, diags: diags, src: file.Text}
}

// maxReserve caps the tokens ScanAll reserves up front: a source of
// few tokens and much comment or whitespace must not reserve by its
// length. Longer token streams grow past it by appending.
const maxReserve = 1 << 14

// ScanAll lexes the entire file, returning the tokens including a
// trailing EOF token.
func ScanAll(file *source.File, diags *source.Diagnostics) []Token {
	lx := New(file, diags)
	t := lx.Next()
	if t.Kind == token.EOF {
		return []Token{t}
	}
	// MiniC source spends at least 3.2 bytes per token (the Section 7
	// corpus's minimum), so one token per 3 bytes rarely regrows.
	toks := make([]Token, 1, min(len(lx.src)/3+2, maxReserve))
	toks[0] = t
	for t.Kind != token.EOF {
		t = lx.Next()
		toks = append(toks, t)
	}
	return toks
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(i int) byte {
	if lx.off+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+i]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipTrivia consumes whitespace and comments. It reports unterminated
// block comments.
func (lx *Lexer) skipTrivia() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isSpace(c):
			lx.off++
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.off++
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.off
			lx.off += 2
			closed := false
			for lx.off+1 < len(lx.src) {
				if lx.src[lx.off] == '*' && lx.src[lx.off+1] == '/' {
					lx.off += 2
					closed = true
					break
				}
				lx.off++
			}
			if !closed {
				lx.off = len(lx.src)
				lx.errorf(source.Span{Start: source.Pos(start), End: source.Pos(lx.off)},
					"unterminated block comment")
			}
		default:
			return
		}
	}
}

func (lx *Lexer) errorf(sp source.Span, format string, args ...any) {
	if lx.diags != nil {
		lx.diags.Errorf(lx.file, sp, "lex", format, args...)
	}
}

// Next returns the next token, or an EOF token at end of input.
func (lx *Lexer) Next() Token {
	lx.skipTrivia()
	start := lx.off
	if lx.off >= len(lx.src) {
		return Token{Kind: token.EOF, Span: source.Span{Start: source.Pos(start), End: source.Pos(start)}}
	}
	c := lx.advance()
	mk := func(k token.Kind) Token {
		return Token{Kind: k, Span: source.Span{Start: source.Pos(start), End: source.Pos(lx.off)}}
	}
	switch {
	case isIdentStart(c):
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.off++
		}
		lit := lx.src[start:lx.off]
		kind := token.LookupIdent(lit)
		t := mk(kind)
		if kind == token.Ident {
			t.Lit = lit
		}
		return t
	case isDigit(c):
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.off++
		}
		if lx.off < len(lx.src) && isIdentStart(lx.peek()) {
			for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
				lx.off++
			}
			sp := source.Span{Start: source.Pos(start), End: source.Pos(lx.off)}
			lx.errorf(sp, "malformed number %q", lx.src[start:lx.off])
			return Token{Kind: token.Illegal, Lit: lx.src[start:lx.off], Span: sp}
		}
		t := mk(token.Int)
		t.Lit = lx.src[start:lx.off]
		return t
	}
	switch c {
	case '"':
		// String literals name import paths; no escapes, single line.
		for lx.off < len(lx.src) && lx.peek() != '"' && lx.peek() != '\n' {
			lx.off++
		}
		if lx.off >= len(lx.src) || lx.peek() != '"' {
			sp := source.Span{Start: source.Pos(start), End: source.Pos(lx.off)}
			lx.errorf(sp, "unterminated string literal")
			return Token{Kind: token.Illegal, Lit: lx.src[start:lx.off], Span: sp}
		}
		lx.off++ // closing quote
		t := mk(token.String)
		t.Lit = lx.src[start+1 : lx.off-1]
		return t
	case '+':
		return mk(token.Plus)
	case '-':
		if lx.peek() == '>' {
			lx.off++
			return mk(token.Arrow)
		}
		return mk(token.Minus)
	case '*':
		return mk(token.Star)
	case '/':
		return mk(token.Slash)
	case '%':
		return mk(token.Percent)
	case '&':
		if lx.peek() == '&' {
			lx.off++
			return mk(token.AndAnd)
		}
		return mk(token.Amp)
	case '|':
		if lx.peek() == '|' {
			lx.off++
			return mk(token.OrOr)
		}
	case '!':
		if lx.peek() == '=' {
			lx.off++
			return mk(token.NotEq)
		}
		return mk(token.Not)
	case '=':
		if lx.peek() == '=' {
			lx.off++
			return mk(token.Eq)
		}
		return mk(token.Assign)
	case '<':
		if lx.peek() == '=' {
			lx.off++
			return mk(token.LessEq)
		}
		return mk(token.Less)
	case '>':
		if lx.peek() == '=' {
			lx.off++
			return mk(token.GreatEq)
		}
		return mk(token.Greater)
	case '.':
		return mk(token.Dot)
	case '(':
		return mk(token.LParen)
	case ')':
		return mk(token.RParen)
	case '[':
		return mk(token.LBrack)
	case ']':
		return mk(token.RBrack)
	case '{':
		return mk(token.LBrace)
	case '}':
		return mk(token.RBrace)
	case ',':
		return mk(token.Comma)
	case ';':
		return mk(token.Semi)
	case ':':
		return mk(token.Colon)
	case '?':
		return mk(token.Question)
	}
	t := mk(token.Illegal)
	t.Lit = string(c)
	lx.errorf(t.Span, "unexpected character %q", c)
	return t
}
