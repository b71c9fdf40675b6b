// Package source implements the MiniC front-end: lexer, parser, AST,
// semantic checking, and constant folding.
//
// MiniC is a small C-like language sufficient to express the paper's
// benchmark kernels: integer scalars and one-dimensional arrays, functions,
// if/else, while/for loops, break/continue/return, and the storage
// qualifiers `reg` (register-resident, invisible to the cache analysis) and
// `secret` (taint source for side-channel detection).
package source

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	NUMBER

	// Keywords.
	KwInt
	KwLong
	KwChar
	KwVoid
	KwIf
	KwElse
	KwWhile
	KwFor
	KwBreak
	KwContinue
	KwReturn
	KwReg
	KwSecret
	KwConst
	KwFence

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Comma
	Semicolon
	Assign
	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Not
	Shl
	Shr
	Lt
	Gt
	Le
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr
	PlusPlus
	MinusMinus
	PlusAssign
	MinusAssign
)

var kindNames = map[Kind]string{
	EOF:         "EOF",
	IDENT:       "identifier",
	NUMBER:      "number",
	KwInt:       "int",
	KwLong:      "long",
	KwChar:      "char",
	KwVoid:      "void",
	KwIf:        "if",
	KwElse:      "else",
	KwWhile:     "while",
	KwFor:       "for",
	KwBreak:     "break",
	KwContinue:  "continue",
	KwReturn:    "return",
	KwReg:       "reg",
	KwSecret:    "secret",
	KwConst:     "const",
	KwFence:     "fence",
	LParen:      "(",
	RParen:      ")",
	LBrace:      "{",
	RBrace:      "}",
	LBracket:    "[",
	RBracket:    "]",
	Comma:       ",",
	Semicolon:   ";",
	Assign:      "=",
	Plus:        "+",
	Minus:       "-",
	Star:        "*",
	Slash:       "/",
	Percent:     "%",
	Amp:         "&",
	Pipe:        "|",
	Caret:       "^",
	Tilde:       "~",
	Not:         "!",
	Shl:         "<<",
	Shr:         ">>",
	Lt:          "<",
	Gt:          ">",
	Le:          "<=",
	Ge:          ">=",
	EqEq:        "==",
	NotEq:       "!=",
	AndAnd:      "&&",
	OrOr:        "||",
	PlusPlus:    "++",
	MinusMinus:  "--",
	PlusAssign:  "+=",
	MinusAssign: "-=",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"int":      KwInt,
	"long":     KwLong,
	"char":     KwChar,
	"void":     KwVoid,
	"if":       KwIf,
	"else":     KwElse,
	"while":    KwWhile,
	"for":      KwFor,
	"break":    KwBreak,
	"continue": KwContinue,
	"return":   KwReturn,
	"reg":      KwReg,
	"secret":   KwSecret,
	"const":    KwConst,
	"fence":    KwFence,
}

// Pos is a source position.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexed token.
type Token struct {
	Kind Kind
	Text string
	Val  int64 // for NUMBER
	Pos  Pos
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT:
		return fmt.Sprintf("identifier %q", t.Text)
	case NUMBER:
		return fmt.Sprintf("number %d", t.Val)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

// ParseError is a front-end diagnostic carrying a source position. It is
// returned (possibly wrapped) by Parse for lexical, syntactic, and semantic
// errors, and survives errors.As through any number of wrapping layers.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Line returns the 1-based source line of the diagnostic.
func (e *ParseError) Line() int { return e.Pos.Line }

// Col returns the 1-based source column of the diagnostic.
func (e *ParseError) Col() int { return e.Pos.Col }

func errf(pos Pos, format string, args ...any) *ParseError {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
