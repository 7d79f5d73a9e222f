// Package cminor implements the C-subset frontend that substitutes for
// Clang in this reproduction: a lexer, a recursive-descent parser producing
// an AST, and a type checker that resolves names and annotates every
// expression with its ctypes.Type.
//
// The subset covers what the paper's examples, attacks, and workloads need:
//
//   - struct definitions (including self-referential ones), typedefs
//   - global and local variable declarations with const qualifiers,
//     pointers of any depth, fixed-size arrays, and function pointers
//   - function definitions; "extern" declarations mark uninstrumented
//     external library functions (the paper's PAC-stripping boundary)
//   - enums (enumerators become int constants)
//   - statements: blocks, if/else, while, do-while, for, switch (with
//     fallthrough, multi-labels, enum/char case constants), return,
//     break, continue, expression statements, declarations with
//     initializers
//   - expressions: assignment (including compound operators), the ternary
//     conditional, logical/relational/arithmetic operators, unary
//   - & - ! ~, casts, calls (direct and through function pointers),
//     member access (. and ->), indexing, sizeof, string / int / float /
//     char literals
//   - the builtins malloc, free, and printf, plus __hook(n), the scripted
//     corruption point the attack scenarios use to model a memory-unsafe
//     write primitive
package cminor

import "fmt"

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TokKind enumerates token kinds.
type TokKind uint8

const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT

	// Keywords
	KwVoid
	KwBool
	KwChar
	KwShort
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwUnsigned
	KwSigned
	KwConst
	KwStruct
	KwTypedef
	KwExtern
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
	KwNull
	KwSwitch
	KwCase
	KwDefault
	KwDo
	KwEnum
	KwStatic
	KwInline

	// Punctuation and operators
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	DOT      // .
	ARROW    // ->
	STAR     // *
	AMP      // &
	PLUS     // +
	MINUS    // -
	SLASH    // /
	PERCENT  // %
	ASSIGN   // =
	PLUSEQ   // +=
	MINUSEQ  // -=
	STAREQ   // *=
	SLASHEQ  // /=
	PCTEQ    // %=
	AMPEQ    // &=
	PIPEEQ   // |=
	CARETEQ  // ^=
	SHLEQ    // <<=
	SHREQ    // >>=
	EQ       // ==
	NE       // !=
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	ANDAND   // &&
	OROR     // ||
	NOT      // !
	TILDE    // ~
	INC      // ++
	DEC      // --
	ELLIPSIS // ...
	PIPE     // |
	CARET    // ^
	SHL      // <<
	SHR      // >>
	QUESTION // ?
	COLON    // :
)

var kindNames2 = map[TokKind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal", FLOATLIT: "float literal",
	CHARLIT: "char literal", STRLIT: "string literal",
	KwVoid: "void", KwBool: "_Bool", KwChar: "char", KwShort: "short",
	KwInt: "int", KwLong: "long", KwFloat: "float", KwDouble: "double",
	KwUnsigned: "unsigned", KwSigned: "signed", KwConst: "const",
	KwStruct: "struct", KwTypedef: "typedef", KwExtern: "extern",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwSizeof: "sizeof", KwNull: "NULL",
	KwSwitch: "switch", KwCase: "case", KwDefault: "default", KwDo: "do",
	KwEnum:   "enum",
	QUESTION: "?", COLON: ":",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", SEMI: ";", COMMA: ",", DOT: ".",
	ARROW: "->", STAR: "*", AMP: "&", PLUS: "+", MINUS: "-",
	SLASH: "/", PERCENT: "%", ASSIGN: "=", PLUSEQ: "+=", MINUSEQ: "-=",
	STAREQ: "*=", SLASHEQ: "/=", PCTEQ: "%=", AMPEQ: "&=", PIPEEQ: "|=",
	CARETEQ: "^=", SHLEQ: "<<=", SHREQ: ">>=",
	EQ: "==", NE: "!=", LT: "<", GT: ">", LE: "<=", GE: ">=",
	ANDAND: "&&", OROR: "||", NOT: "!", TILDE: "~", INC: "++", DEC: "--",
	ELLIPSIS: "...", PIPE: "|", CARET: "^", SHL: "<<", SHR: ">>",
}

func (k TokKind) String() string {
	if s, ok := kindNames2[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", uint8(k))
}

var keywords = map[string]TokKind{
	"void": KwVoid, "_Bool": KwBool, "char": KwChar, "short": KwShort,
	"int": KwInt, "long": KwLong, "float": KwFloat, "double": KwDouble,
	"unsigned": KwUnsigned, "signed": KwSigned, "const": KwConst,
	"struct": KwStruct, "typedef": KwTypedef, "extern": KwExtern,
	"if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"sizeof": KwSizeof, "NULL": KwNull,
	"switch": KwSwitch, "case": KwCase, "default": KwDefault, "do": KwDo,
	"enum": KwEnum, "static": KwStatic, "inline": KwInline,
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Pos  Pos
	Text string  // identifier text or string literal contents
	Val  int64   // integer / char literal value
	Fval float64 // float literal value
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT:
		return t.Text
	case INTLIT, CHARLIT:
		return fmt.Sprintf("%d", t.Val)
	case STRLIT:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Kind.String()
	}
}

// SyntaxError is a lexing or parsing failure with its source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input.
func Lex(src string) ([]Token, error) {
	toks, err := lexInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto appends src's tokens to toks. On an error it returns what it
// appended so far, so a caller lending a reused buffer gets it back.
func lexInto(toks []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekByte2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{lx.line, lx.col} }

func (lx *Lexer) errorf(pos Pos, format string, args ...interface{}) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdent(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	for {
		// Skip whitespace.
		for lx.off < len(lx.src) {
			c := lx.peekByte()
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				lx.advance()
				continue
			}
			break
		}
		// Skip comments.
		if lx.peekByte() == '/' && lx.peekByte2() == '/' {
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			continue
		}
		if lx.peekByte() == '/' && lx.peekByte2() == '*' {
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekByte2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return Token{}, lx.errorf(start, "unterminated block comment")
			}
			continue
		}
		break
	}

	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}

	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdent(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: text}, nil

	case isDigit(c):
		return lx.lexNumber(pos)

	case c == '\'':
		return lx.lexChar(pos)

	case c == '"':
		return lx.lexString(pos)
	}

	// Operators and punctuation.
	two := func(kind TokKind) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	one := func(kind TokKind) (Token, error) {
		lx.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	d := lx.peekByte2()
	switch c {
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '{':
		return one(LBRACE)
	case '}':
		return one(RBRACE)
	case '[':
		return one(LBRACK)
	case ']':
		return one(RBRACK)
	case ';':
		return one(SEMI)
	case ',':
		return one(COMMA)
	case '.':
		if d == '.' && lx.off+2 < len(lx.src) && lx.src[lx.off+2] == '.' {
			lx.advance()
			lx.advance()
			lx.advance()
			return Token{Kind: ELLIPSIS, Pos: pos}, nil
		}
		return one(DOT)
	case '*':
		if d == '=' {
			return two(STAREQ)
		}
		return one(STAR)
	case '/':
		if d == '=' {
			return two(SLASHEQ)
		}
		return one(SLASH)
	case '%':
		if d == '=' {
			return two(PCTEQ)
		}
		return one(PERCENT)
	case '~':
		return one(TILDE)
	case '?':
		return one(QUESTION)
	case ':':
		return one(COLON)
	case '^':
		if d == '=' {
			return two(CARETEQ)
		}
		return one(CARET)
	case '+':
		if d == '+' {
			return two(INC)
		}
		if d == '=' {
			return two(PLUSEQ)
		}
		return one(PLUS)
	case '-':
		if d == '-' {
			return two(DEC)
		}
		if d == '=' {
			return two(MINUSEQ)
		}
		if d == '>' {
			return two(ARROW)
		}
		return one(MINUS)
	case '=':
		if d == '=' {
			return two(EQ)
		}
		return one(ASSIGN)
	case '!':
		if d == '=' {
			return two(NE)
		}
		return one(NOT)
	case '<':
		if d == '=' {
			return two(LE)
		}
		if d == '<' {
			if lx.off+2 < len(lx.src) && lx.src[lx.off+2] == '=' {
				lx.advance()
				lx.advance()
				lx.advance()
				return Token{Kind: SHLEQ, Pos: pos}, nil
			}
			return two(SHL)
		}
		return one(LT)
	case '>':
		if d == '=' {
			return two(GE)
		}
		if d == '>' {
			if lx.off+2 < len(lx.src) && lx.src[lx.off+2] == '=' {
				lx.advance()
				lx.advance()
				lx.advance()
				return Token{Kind: SHREQ, Pos: pos}, nil
			}
			return two(SHR)
		}
		return one(GT)
	case '&':
		if d == '&' {
			return two(ANDAND)
		}
		if d == '=' {
			return two(AMPEQ)
		}
		return one(AMP)
	case '|':
		if d == '|' {
			return two(OROR)
		}
		if d == '=' {
			return two(PIPEEQ)
		}
		return one(PIPE)
	}
	return Token{}, lx.errorf(pos, "unexpected character %q", string(c))
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	if lx.peekByte() == '0' && (lx.peekByte2() == 'x' || lx.peekByte2() == 'X') {
		lx.advance()
		lx.advance()
		hs := lx.off
		for lx.off < len(lx.src) && isHexDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.off == hs {
			return Token{}, lx.errorf(pos, "malformed hex literal")
		}
		var v int64
		for _, ch := range []byte(lx.src[hs:lx.off]) {
			v <<= 4
			switch {
			case isDigit(ch):
				v |= int64(ch - '0')
			case ch >= 'a':
				v |= int64(ch-'a') + 10
			default:
				v |= int64(ch-'A') + 10
			}
		}
		return Token{Kind: INTLIT, Pos: pos, Val: v, Text: lx.src[start:lx.off]}, nil
	}
	for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
		lx.advance()
	}
	// Float literal: digits '.' digits.
	if lx.peekByte() == '.' && isDigit(lx.peekByte2()) {
		lx.advance()
		for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		var fv float64
		frac := false
		scale := 0.1
		for _, ch := range []byte(lx.src[start:lx.off]) {
			if ch == '.' {
				frac = true
				continue
			}
			if frac {
				fv += float64(ch-'0') * scale
				scale /= 10
			} else {
				fv = fv*10 + float64(ch-'0')
			}
		}
		return Token{Kind: FLOATLIT, Pos: pos, Fval: fv, Text: lx.src[start:lx.off]}, nil
	}
	var v int64
	for _, ch := range []byte(lx.src[start:lx.off]) {
		v = v*10 + int64(ch-'0')
	}
	// Consume any integer suffixes (L, UL, ...) without effect.
	for lx.off < len(lx.src) && (lx.peekByte() == 'l' || lx.peekByte() == 'L' || lx.peekByte() == 'u' || lx.peekByte() == 'U') {
		lx.advance()
	}
	return Token{Kind: INTLIT, Pos: pos, Val: v, Text: lx.src[start:lx.off]}, nil
}

func (lx *Lexer) escape(pos Pos) (byte, error) {
	lx.advance() // backslash
	if lx.off >= len(lx.src) {
		return 0, lx.errorf(pos, "unterminated escape")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	}
	return 0, lx.errorf(pos, "unknown escape \\%c", c)
}

func (lx *Lexer) lexChar(pos Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return Token{}, lx.errorf(pos, "unterminated char literal")
	}
	var v byte
	var err error
	if lx.peekByte() == '\\' {
		v, err = lx.escape(pos)
		if err != nil {
			return Token{}, err
		}
	} else {
		v = lx.advance()
	}
	if lx.off >= len(lx.src) || lx.peekByte() != '\'' {
		return Token{}, lx.errorf(pos, "unterminated char literal")
	}
	lx.advance()
	return Token{Kind: CHARLIT, Pos: pos, Val: int64(v)}, nil
}

func (lx *Lexer) lexString(pos Pos) (Token, error) {
	lx.advance() // opening quote
	var buf []byte
	for {
		if lx.off >= len(lx.src) {
			return Token{}, lx.errorf(pos, "unterminated string literal")
		}
		if lx.peekByte() == '"' {
			lx.advance()
			return Token{Kind: STRLIT, Pos: pos, Text: string(buf)}, nil
		}
		if lx.peekByte() == '\\' {
			c, err := lx.escape(pos)
			if err != nil {
				return Token{}, err
			}
			buf = append(buf, c)
			continue
		}
		buf = append(buf, lx.advance())
	}
}
