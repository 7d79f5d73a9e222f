package cminor

import (
	"fmt"
	"strings"
	"sync"

	"rsti/internal/ctypes"
)

// Parser is a recursive-descent parser for the cminor C subset. It owns
// the ctypes.Table for the translation unit so that struct and typedef
// names resolve during parsing (the classic "lexer hack" need: telling a
// cast "(node*)x" apart from an expression requires knowing that node is a
// type name).
type Parser struct {
	toks     []Token
	pos      int
	types    *ctypes.Table
	typedefs map[string]*ctypes.Type
	enums    map[string]int64 // enumerator name -> constant value
	file     *File
}

// tokenPool holds token buffers for Parse: the token stream is scratch
// (the AST copies what it keeps out of each token), so it is lexed into a
// reused buffer instead of a slice grown per call. A buffer goes back
// empty and cleared, since token text would pin the source.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

// Parse lexes and parses src into a File. The result is not yet checked;
// call Check (or use Frontend) to resolve names and types.
func Parse(src string) (*File, error) {
	buf := tokenPool.Get().(*[]Token)
	toks, err := lexInto((*buf)[:0], src)
	var f *File
	if err == nil {
		p := &Parser{
			toks:     toks,
			types:    ctypes.NewTable(),
			typedefs: make(map[string]*ctypes.Type),
			enums:    make(map[string]int64),
		}
		p.file = &File{Types: p.types, Typedefs: p.typedefs, Enums: p.enums}
		if err = p.parseFile(); err == nil {
			f = p.file
		}
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
	return f, err
}

// Frontend parses and checks src, returning a fully typed File.
func Frontend(src string) (*File, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) peek(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether the token at offset n begins a type.
func (p *Parser) isTypeStart(n int) bool {
	t := p.peek(n)
	switch t.Kind {
	case KwVoid, KwBool, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwUnsigned, KwSigned, KwConst, KwStruct, KwEnum:
		return true
	case IDENT:
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

func (p *Parser) parseFile() error {
	for !p.at(EOF) {
		if err := p.parseTopLevel(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseTopLevel() error {
	switch {
	case p.at(KwTypedef):
		return p.parseTypedef()
	case p.at(KwStruct) && p.peek(1).Kind == IDENT && p.peek(2).Kind == SEMI:
		// Forward declaration: "struct X;".
		p.next()
		p.types.DeclareStruct(p.next().Text)
		p.next() // ;
		return nil
	case p.at(KwStruct) && p.peek(1).Kind == IDENT && p.peek(2).Kind == LBRACE:
		_, err := p.parseStructDef()
		if err != nil {
			return err
		}
		_, err = p.expect(SEMI)
		return err
	case p.at(KwEnum):
		return p.parseEnum()
	case p.at(KwExtern):
		p.next()
		return p.parseDeclaration(true)
	case p.at(KwStatic), p.at(KwInline):
		// Linkage and inlining hints carry no semantics in a single
		// translation unit; accept and ignore them.
		for p.at(KwStatic) || p.at(KwInline) {
			p.next()
		}
		return p.parseDeclaration(false)
	default:
		return p.parseDeclaration(false)
	}
}

// parseEnum handles "enum [Tag] { A, B = 5, C };". Enumerators become int
// constants; the enum type itself collapses to int, as C guarantees its
// underlying representation here.
func (p *Parser) parseEnum() error {
	p.next() // enum
	if p.at(IDENT) {
		p.next() // optional tag, unused beyond syntax
	}
	if _, err := p.expect(LBRACE); err != nil {
		return err
	}
	next := int64(0)
	for !p.at(RBRACE) {
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if p.accept(ASSIGN) {
			neg := p.accept(MINUS)
			lit, err := p.expect(INTLIT)
			if err != nil {
				return err
			}
			next = lit.Val
			if neg {
				next = -next
			}
		}
		if _, dup := p.enums[nameTok.Text]; dup {
			return p.errorf("enumerator %q redefined", nameTok.Text)
		}
		p.enums[nameTok.Text] = next
		next++
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RBRACE); err != nil {
		return err
	}
	_, err := p.expect(SEMI)
	return err
}

// parseStructDef parses "struct NAME { fields }" (without the trailing
// semicolon) and returns the completed type.
func (p *Parser) parseStructDef() (*ctypes.Type, error) {
	pos := p.cur().Pos
	p.next() // struct
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	p.types.DeclareStruct(nameTok.Text)
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	var fields []ctypes.Field
	for !p.at(RBRACE) {
		base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, err
		}
		for {
			name, ty, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if name == "" {
				return nil, p.errorf("struct field missing a name")
			}
			fields = append(fields, ctypes.Field{Name: name, Type: ty})
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	p.next() // }
	st, err := p.types.CompleteStruct(nameTok.Text, fields)
	if err != nil {
		return nil, &SyntaxError{Pos: pos, Msg: err.Error()}
	}
	p.file.Structs = append(p.file.Structs, &StructDecl{Pos: pos, Name: nameTok.Text, Type: st})
	return st, nil
}

// parseTypedef handles "typedef struct {…} name;", "typedef struct X {…}
// name;" and "typedef type name;".
func (p *Parser) parseTypedef() error {
	p.next() // typedef
	var base *ctypes.Type
	var err error
	if p.at(KwStruct) && (p.peek(1).Kind == LBRACE || p.peek(2).Kind == LBRACE) {
		if p.peek(1).Kind == LBRACE {
			// Anonymous struct: give it the typedef's name once known.
			// Parse the body into a placeholder tag derived from the
			// upcoming typedef name, which we must peek: instead, parse
			// fields into a list first.
			base, err = p.parseAnonStructBody()
		} else {
			base, err = p.parseStructDef()
		}
		if err != nil {
			return err
		}
	} else {
		base, err = p.parseDeclSpecifiers()
		if err != nil {
			return err
		}
	}
	name, ty, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if name == "" {
		return p.errorf("typedef missing a name")
	}
	// If the base was an anonymous struct placeholder, adopt the typedef
	// name as its tag so diagnostics and analyses name it like C does.
	if base.Kind == ctypes.Struct && strings.HasPrefix(base.Name, "__anon") {
		p.types.RenameStruct(base.Name, name)
	}
	p.typedefs[name] = ty
	_, err2 := p.expect(SEMI)
	return err2
}

// anonStructCount names anonymous typedef structs uniquely per parser.
func (p *Parser) parseAnonStructBody() (*ctypes.Type, error) {
	pos := p.cur().Pos
	p.next() // struct
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	var fields []ctypes.Field
	for !p.at(RBRACE) {
		base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, err
		}
		for {
			name, ty, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if name == "" {
				return nil, p.errorf("struct field missing a name")
			}
			fields = append(fields, ctypes.Field{Name: name, Type: ty})
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	p.next() // }
	tag := fmt.Sprintf("__anon%d", len(p.file.Structs))
	st, err := p.types.CompleteStruct(tag, fields)
	if err != nil {
		return nil, &SyntaxError{Pos: pos, Msg: err.Error()}
	}
	p.file.Structs = append(p.file.Structs, &StructDecl{Pos: pos, Name: tag, Type: st})
	return st, nil
}

// parseDeclSpecifiers parses the base type of a declaration:
// [const] (void|_Bool|char|short|int|long|float|double|struct X|typedef-name) [const]
func (p *Parser) parseDeclSpecifiers() (*ctypes.Type, error) {
	konst := false
	for p.accept(KwConst) {
		konst = true
	}
	var base *ctypes.Type
	t := p.cur()
	switch t.Kind {
	case KwVoid:
		p.next()
		base = ctypes.VoidType
	case KwBool:
		p.next()
		base = ctypes.BoolType
	case KwChar:
		p.next()
		base = ctypes.CharType
	case KwShort:
		p.next()
		base = ctypes.ShortType
	case KwInt:
		p.next()
		base = ctypes.IntType
	case KwLong:
		p.next()
		p.accept(KwLong) // long long
		p.accept(KwInt)  // long int
		base = ctypes.LongType
	case KwFloat:
		p.next()
		base = ctypes.FloatType
	case KwDouble:
		p.next()
		base = ctypes.DoubleType
	case KwUnsigned, KwSigned:
		// The model collapses signedness; consume the specifier and any
		// following width keyword.
		p.next()
		switch p.cur().Kind {
		case KwChar:
			p.next()
			base = ctypes.CharType
		case KwShort:
			p.next()
			base = ctypes.ShortType
		case KwLong:
			p.next()
			p.accept(KwLong)
			base = ctypes.LongType
		case KwInt:
			p.next()
			base = ctypes.IntType
		default:
			base = ctypes.IntType
		}
	case KwEnum:
		p.next()
		if p.at(IDENT) {
			p.next()
		}
		base = ctypes.IntType
	case KwStruct:
		p.next()
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		base = p.types.DeclareStruct(nameTok.Text)
	case IDENT:
		td, ok := p.typedefs[t.Text]
		if !ok {
			return nil, p.errorf("unknown type name %q", t.Text)
		}
		p.next()
		base = td
	default:
		return nil, p.errorf("expected a type, found %s", t)
	}
	for p.accept(KwConst) {
		konst = true
	}
	if konst {
		base = ctypes.Qualified(base)
	}
	return base, nil
}

// parseDeclarator parses a C declarator over the given base type and
// returns the declared name ("" for abstract declarators) and the full
// type. Handles pointers (with const), parenthesized declarators
// (function pointers), arrays, and function parameter lists.
func (p *Parser) parseDeclarator(base *ctypes.Type) (string, *ctypes.Type, error) {
	// Pointer prefix: each * wraps the type; "* const" qualifies the
	// pointer itself.
	for p.accept(STAR) {
		base = ctypes.PointerTo(base)
		if p.accept(KwConst) {
			base = ctypes.Qualified(base)
		}
	}

	// Direct declarator.
	var name string
	// inner delays application of a parenthesized declarator's wrapping
	// until the suffixes of the outer one are known, which is exactly how
	// C declarator precedence works: in int (*fp)(int), the (int) suffix
	// applies to the inner "*fp".
	var inner func(*ctypes.Type) (string, *ctypes.Type, error)

	switch {
	case p.at(IDENT):
		name = p.next().Text
	case p.at(LPAREN) && (p.peek(1).Kind == STAR || p.peek(1).Kind == IDENT):
		p.next() // (
		save := p.pos
		// Could be a parenthesized declarator or, in an abstract context,
		// a parameter list. Heuristic: '*' or IDENT')' means declarator.
		if p.at(STAR) || (p.at(IDENT) && p.peek(1).Kind == RPAREN) {
			pp := p.pos
			_ = pp
			innerToks := true
			_ = innerToks
			inner = nil
			// Parse the inner declarator against a placeholder; we will
			// re-apply it after suffixes.
			innerName, innerWrap, err := p.parseDeclaratorDeferred()
			if err != nil {
				return "", nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return "", nil, err
			}
			name = innerName
			inner = innerWrap
		} else {
			p.pos = save - 1 // rewind; treat as abstract declarator with suffix
		}
	}

	// Suffixes: arrays and parameter lists, applied outside-in.
	ty := base
	var suffixes []func(*ctypes.Type) (*ctypes.Type, error)
	for {
		if p.accept(LBRACK) {
			lenTok, err := p.expect(INTLIT)
			if err != nil {
				return "", nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return "", nil, err
			}
			n := int(lenTok.Val)
			suffixes = append(suffixes, func(t *ctypes.Type) (*ctypes.Type, error) {
				return ctypes.ArrayOf(t, n), nil
			})
			continue
		}
		if p.accept(LPAREN) {
			params, variadic, err := p.parseParamTypes()
			if err != nil {
				return "", nil, err
			}
			suffixes = append(suffixes, func(t *ctypes.Type) (*ctypes.Type, error) {
				return ctypes.FuncOf(t, params, variadic), nil
			})
			continue
		}
		break
	}
	// Array/function suffixes bind inner-first in C: char *argv[3] is an
	// array of pointers; the suffix list applies left to right with the
	// *last* suffix innermost relative to... in practice our subset only
	// nests one suffix level plus a parenthesized declarator, so apply in
	// reverse order around the base.
	for i := len(suffixes) - 1; i >= 0; i-- {
		var err error
		ty, err = suffixes[i](ty)
		if err != nil {
			return "", nil, err
		}
	}
	if inner != nil {
		return inner(ty)
	}
	return name, ty, nil
}

// parseDeclaratorDeferred parses a declarator but defers applying its
// wrapping until the surrounding declarator's suffixes are known. It
// returns the declared name and a function that, given the type built by
// the *outer* context (base + outer suffixes), produces the final type.
func (p *Parser) parseDeclaratorDeferred() (string, func(*ctypes.Type) (string, *ctypes.Type, error), error) {
	stars := 0
	konst := false
	for p.accept(STAR) {
		stars++
		if p.accept(KwConst) {
			konst = true
		}
	}
	var name string
	if p.at(IDENT) {
		name = p.next().Text
	}
	// Inner array dimensions: "(*tab[2])(void)" declares an array of
	// function pointers — the array binds inside the parens, outside the
	// pointer stars.
	var dims []int
	for p.at(LBRACK) {
		p.next()
		lenTok, err := p.expect(INTLIT)
		if err != nil {
			return "", nil, err
		}
		if _, err := p.expect(RBRACK); err != nil {
			return "", nil, err
		}
		dims = append(dims, int(lenTok.Val))
	}
	wrap := func(t *ctypes.Type) (string, *ctypes.Type, error) {
		for i := 0; i < stars; i++ {
			t = ctypes.PointerTo(t)
		}
		if konst {
			t = ctypes.Qualified(t)
		}
		for i := len(dims) - 1; i >= 0; i-- {
			t = ctypes.ArrayOf(t, dims[i])
		}
		return name, t, nil
	}
	return name, wrap, nil
}

// parseParamTypes parses a parameter type list after '(' and consumes ')'.
func (p *Parser) parseParamTypes() ([]*ctypes.Type, bool, error) {
	if p.accept(RPAREN) {
		return nil, false, nil
	}
	if p.at(KwVoid) && p.peek(1).Kind == RPAREN {
		p.next()
		p.next()
		return nil, false, nil
	}
	var params []*ctypes.Type
	variadic := false
	for {
		if p.accept(ELLIPSIS) {
			variadic = true
			break
		}
		base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, false, err
		}
		_, ty, err := p.parseDeclarator(base)
		if err != nil {
			return nil, false, err
		}
		params = append(params, ty)
		if !p.accept(COMMA) {
			break
		}
	}
	_, err := p.expect(RPAREN)
	return params, variadic, err
}

// parseParams parses a named parameter list after '(' and consumes ')'.
func (p *Parser) parseParams() ([]*Param, bool, error) {
	if p.accept(RPAREN) {
		return nil, false, nil
	}
	if p.at(KwVoid) && p.peek(1).Kind == RPAREN {
		p.next()
		p.next()
		return nil, false, nil
	}
	var params []*Param
	variadic := false
	for {
		if p.accept(ELLIPSIS) {
			variadic = true
			break
		}
		pos := p.cur().Pos
		base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, false, err
		}
		name, ty, err := p.parseDeclarator(base)
		if err != nil {
			return nil, false, err
		}
		params = append(params, &Param{Pos: pos, Name: name, Type: ty})
		if !p.accept(COMMA) {
			break
		}
	}
	_, err := p.expect(RPAREN)
	return params, variadic, err
}

// parseDeclaration parses a function definition, function declaration, or
// global variable declaration.
func (p *Parser) parseDeclaration(extern bool) error {
	pos := p.cur().Pos
	base, err := p.parseDeclSpecifiers()
	if err != nil {
		return err
	}

	// Function definition/declaration: [*...] NAME ( params ) { body } | ;
	// Distinguish from variables by the token after the declarator name,
	// looking through pointer stars so that "int *f(void) {...}" is a
	// function with a pointer return type. The stars are only consumed on
	// the function path; the variable path re-parses them per declarator
	// (so "int *a, b;" keeps its C meaning).
	save := p.pos
	fnBase := base
	for p.accept(STAR) {
		fnBase = ctypes.PointerTo(fnBase)
		if p.accept(KwConst) {
			fnBase = ctypes.Qualified(fnBase)
		}
	}
	if !(p.at(IDENT) && p.peek(1).Kind == LPAREN) {
		p.pos = save // not a function: rewind the stars
	} else {
		base = fnBase
	}
	if p.at(IDENT) && p.peek(1).Kind == LPAREN {
		name := p.next().Text
		p.next() // (
		params, variadic, err := p.parseParams()
		if err != nil {
			return err
		}
		fn := &FuncDecl{Pos: pos, Name: name, Ret: base, Params: params, Variadic: variadic, Extern: extern}
		if p.accept(SEMI) {
			fn.Extern = true // a body-less declaration is external
			p.file.Funcs = append(p.file.Funcs, fn)
			return nil
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		if extern {
			return &SyntaxError{Pos: pos, Msg: "extern function cannot have a body"}
		}
		fn.Body = body
		p.file.Funcs = append(p.file.Funcs, fn)
		return nil
	}

	// Global variables, possibly a comma-separated list. A declarator
	// that yields a pointer return with parens (function pointers) is
	// still a variable.
	for {
		name, ty, err := p.parseDeclarator(base)
		if err != nil {
			return err
		}
		if name == "" {
			return p.errorf("declaration missing a name")
		}
		if ty.Kind == ctypes.Func {
			// Function declarator without preceding IDENT( pattern, e.g.
			// a prototype with a pointer return: treat as declaration.
			fn := &FuncDecl{Pos: pos, Name: name, Ret: ty.Ret, Extern: true}
			for _, pt := range ty.Params {
				fn.Params = append(fn.Params, &Param{Type: pt})
			}
			fn.Variadic = ty.Variadic
			p.file.Funcs = append(p.file.Funcs, fn)
		} else {
			vd := &VarDecl{Pos: pos, Name: name, Type: ty}
			if p.accept(ASSIGN) {
				init, err := p.parseAssignExpr()
				if err != nil {
					return err
				}
				vd.Init = init
			}
			p.file.Globals = append(p.file.Globals, vd)
		}
		if !p.accept(COMMA) {
			break
		}
	}
	_, err = p.expect(SEMI)
	return err
}

// ---------- Statements ----------

func (p *Parser) parseBlock() (*BlockStmt, error) {
	pos := p.cur().Pos
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: pos}
	for !p.at(RBRACE) {
		if p.at(EOF) {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.next() // }
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case LBRACE:
		return p.parseBlock()
	case SEMI:
		p.next()
		return nil, nil
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwDo:
		return p.parseDoWhile()
	case KwSwitch:
		return p.parseSwitch()
	case KwFor:
		return p.parseFor()
	case KwReturn:
		pos := p.next().Pos
		if p.accept(SEMI) {
			return &ReturnStmt{Pos: pos}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: pos, X: x}, nil
	case KwBreak:
		pos := p.next().Pos
		_, err := p.expect(SEMI)
		return &BreakStmt{Pos: pos}, err
	case KwContinue:
		pos := p.next().Pos
		_, err := p.expect(SEMI)
		return &ContinueStmt{Pos: pos}, err
	}

	if p.isTypeStart(0) && !p.isCastAhead() {
		return p.parseDeclStmtList()
	}

	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, nil
}

// isCastAhead disambiguates a statement that begins with a type name: a
// declaration, unless it is really an expression. Since expressions cannot
// begin with a bare type in this subset, a type start always means a
// declaration; this hook exists for clarity and future extension.
func (p *Parser) isCastAhead() bool { return false }

// parseDeclStmtList parses "type declarator [= init] (, declarator [=
// init])* ;" and returns a BlockStmt when more than one variable is
// declared (the block does not open a new C scope here; the checker treats
// DeclStmt lists linearly).
func (p *Parser) parseDeclStmtList() (Stmt, error) {
	pos := p.cur().Pos
	base, err := p.parseDeclSpecifiers()
	if err != nil {
		return nil, err
	}
	var decls []*DeclStmt
	for {
		name, ty, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errorf("declaration missing a name")
		}
		vd := &VarDecl{Pos: pos, Name: name, Type: ty}
		if p.accept(ASSIGN) {
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		decls = append(decls, &DeclStmt{Decl: vd})
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &DeclList{Pos: pos, Decls: decls}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	var els Stmt
	if p.accept(KwElse) {
		els, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Pos: pos, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	pos := p.next().Pos // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &DoWhileStmt{Pos: pos, Cond: cond, Body: body}, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	pos := p.next().Pos // switch
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{Pos: pos, Tag: tag, Default: -1}
	for !p.at(RBRACE) {
		if p.at(EOF) {
			return nil, p.errorf("unterminated switch")
		}
		cs := SwitchCase{Pos: p.cur().Pos}
		switch {
		case p.accept(KwCase):
			for {
				neg := p.accept(MINUS)
				var v int64
				switch {
				case p.at(INTLIT), p.at(CHARLIT):
					v = p.next().Val
				case p.at(IDENT):
					ev, ok := p.enums[p.cur().Text]
					if !ok {
						return nil, p.errorf("case label %q is not a constant", p.cur().Text)
					}
					p.next()
					v = ev
				default:
					return nil, p.errorf("expected a constant case label, found %s", p.cur())
				}
				if neg {
					v = -v
				}
				cs.Values = append(cs.Values, v)
				if _, err := p.expect(COLON); err != nil {
					return nil, err
				}
				// Adjacent "case a: case b:" labels share one body.
				if !p.accept(KwCase) {
					break
				}
			}
		case p.accept(KwDefault):
			cs.IsDefault = true
			if _, err := p.expect(COLON); err != nil {
				return nil, err
			}
			sw.Default = len(sw.Cases)
		default:
			return nil, p.errorf("expected case or default in switch, found %s", p.cur())
		}
		for !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBRACE) {
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if st != nil {
				cs.Body = append(cs.Body, st)
			}
		}
		sw.Cases = append(sw.Cases, cs)
	}
	p.next() // }
	return sw, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.next().Pos // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var init Stmt
	var err error
	if !p.accept(SEMI) {
		if p.isTypeStart(0) {
			init, err = p.parseDeclStmtList()
			if err != nil {
				return nil, err
			}
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			init = &ExprStmt{X: x}
		}
	}
	var cond Expr
	if !p.at(SEMI) {
		cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.at(RPAREN) {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		post = &ExprStmt{X: x}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: body}, nil
}

// ---------- Expressions ----------

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case ASSIGN, PLUSEQ, MINUSEQ, STAREQ, SLASHEQ, PCTEQ, AMPEQ, PIPEEQ, CARETEQ, SHLEQ, SHREQ:
		op := p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		a := &Assign{Op: op.Kind, LHS: lhs, RHS: rhs}
		a.Pos = op.Pos
		return a, nil
	}
	return lhs, nil
}

type binLevel struct {
	toks []TokKind
	ops  []BinOp
}

var binLevels = []binLevel{
	{[]TokKind{OROR}, []BinOp{LogOr}},
	{[]TokKind{ANDAND}, []BinOp{LogAnd}},
	{[]TokKind{PIPE}, []BinOp{Or}},
	{[]TokKind{CARET}, []BinOp{Xor}},
	{[]TokKind{AMP}, []BinOp{And}},
	{[]TokKind{EQ, NE}, []BinOp{Eq, Ne}},
	{[]TokKind{LT, LE, GT, GE}, []BinOp{Lt, Le, Gt, Ge}},
	{[]TokKind{SHL, SHR}, []BinOp{Shl, Shr}},
	{[]TokKind{PLUS, MINUS}, []BinOp{Add, Sub}},
	{[]TokKind{STAR, SLASH, PERCENT}, []BinOp{Mul, Div, Rem}},
}

// parseConditional parses the ternary c ? a : b (right associative).
func (p *Parser) parseConditional() (Expr, error) {
	c, err := p.parseLogOr()
	if err != nil {
		return nil, err
	}
	if !p.at(QUESTION) {
		return c, nil
	}
	pos := p.next().Pos
	a, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	b, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	e := &Cond{C: c, A: a, B: b}
	e.Pos = pos
	return e, nil
}

func (p *Parser) parseLogOr() (Expr, error) { return p.parseBinary(0) }

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	lv := binLevels[level]
	for {
		matched := false
		for i, tk := range lv.toks {
			if p.at(tk) {
				pos := p.next().Pos
				rhs, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				b := &Binary{Op: lv.ops[i], X: lhs, Y: rhs}
				b.Pos = pos
				lhs = b
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos := p.cur().Pos
	mk := func(op UnaryOp) (Expr, error) {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &Unary{Op: op, X: x}
		u.Pos = pos
		return u, nil
	}
	switch p.cur().Kind {
	case STAR:
		return mk(Deref)
	case AMP:
		return mk(Addr)
	case MINUS:
		return mk(Neg)
	case NOT:
		return mk(LogNot)
	case TILDE:
		return mk(BitNot)
	case INC, DEC:
		decr := p.cur().Kind == DEC
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		id := &IncDec{X: x, Decr: decr}
		id.Pos = pos
		return id, nil
	case KwSizeof:
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var ty *ctypes.Type
		if p.isTypeStart(0) {
			base, err := p.parseDeclSpecifiers()
			if err != nil {
				return nil, err
			}
			_, t, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			ty = t
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			// sizeof expr resolves to the checked type later; record the
			// expression via a placeholder wrapper the checker folds.
			s := &SizeofExpr{}
			s.Pos = pos
			s.Of = nil
			// Keep the operand for the checker by expressing sizeof(e)
			// as sizeof over e's checked type via a Cast-like trick: the
			// checker needs the expression, so store it.
			sz := &sizeofOfExpr{SizeofExpr: s, operand: x}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return sz, nil
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		s := &SizeofExpr{Of: ty}
		s.Pos = pos
		return s, nil
	case LPAREN:
		// Cast: '(' type ')' unary.
		if p.isTypeStart(1) {
			p.next() // (
			base, err := p.parseDeclSpecifiers()
			if err != nil {
				return nil, err
			}
			_, ty, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			c := &Cast{X: x}
			c.Pos = pos
			c.Ty = ty
			return c, nil
		}
	}
	return p.parsePostfix()
}

// sizeofOfExpr is a SizeofExpr whose operand type is not yet known; the
// checker replaces Of with the operand's checked type.
type sizeofOfExpr struct {
	*SizeofExpr
	operand Expr
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case LPAREN:
			p.next()
			var args []Expr
			for !p.at(RPAREN) {
				a, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(COMMA) {
					break
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			c := &Call{Fun: x, Args: args}
			c.Pos = pos
			x = c
		case LBRACK:
			p.next()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			idx := &Index{X: x, I: i}
			idx.Pos = pos
			x = idx
		case DOT, ARROW:
			arrow := p.cur().Kind == ARROW
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			m := &Member{X: x, Name: name.Text, Arrow: arrow}
			m.Pos = pos
			x = m
		case INC, DEC:
			decr := p.cur().Kind == DEC
			p.next()
			id := &IncDec{X: x, Decr: decr}
			id.Pos = pos
			x = id
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		e := &IntLit{Val: t.Val}
		e.Pos = t.Pos
		return e, nil
	case FLOATLIT:
		p.next()
		e := &FloatLit{Val: t.Fval}
		e.Pos = t.Pos
		return e, nil
	case CHARLIT:
		p.next()
		e := &CharLit{Val: byte(t.Val)}
		e.Pos = t.Pos
		return e, nil
	case STRLIT:
		p.next()
		e := &StrLit{Val: t.Text}
		e.Pos = t.Pos
		return e, nil
	case KwNull:
		p.next()
		e := &NullLit{}
		e.Pos = t.Pos
		return e, nil
	case IDENT:
		p.next()
		if v, ok := p.enums[t.Text]; ok {
			e := &IntLit{Val: v}
			e.Pos = t.Pos
			return e, nil
		}
		e := &Ident{Name: t.Text}
		e.Pos = t.Pos
		return e, nil
	case LPAREN:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(RPAREN)
		return x, err
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}
