package cminor

import (
	"fmt"

	"rsti/internal/ctypes"
)

// Builtins are the library functions the VM implements natively. They are
// registered as extern declarations when a program uses them without
// declaring them, mirroring how the paper's programs link against libc:
// extern code is uninstrumented, so RSTI strips PACs at these boundaries.
var Builtins = []*FuncDecl{
	{Name: "malloc", Ret: ctypes.PointerTo(ctypes.VoidType), Params: []*Param{{Name: "size", Type: ctypes.LongType}}, Extern: true},
	{Name: "free", Ret: ctypes.VoidType, Params: []*Param{{Name: "p", Type: ctypes.PointerTo(ctypes.VoidType)}}, Extern: true},
	{Name: "printf", Ret: ctypes.IntType, Params: []*Param{{Name: "fmt", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Variadic: true, Extern: true},
	{Name: "puts", Ret: ctypes.IntType, Params: []*Param{{Name: "s", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Extern: true},
	{Name: "exit", Ret: ctypes.VoidType, Params: []*Param{{Name: "code", Type: ctypes.IntType}}, Extern: true},
	{Name: "strlen", Ret: ctypes.LongType, Params: []*Param{{Name: "s", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Extern: true},
	{Name: "strcmp", Ret: ctypes.IntType, Params: []*Param{{Name: "a", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}, {Name: "b", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Extern: true},
	{Name: "strcpy", Ret: ctypes.PointerTo(ctypes.CharType), Params: []*Param{{Name: "dst", Type: ctypes.PointerTo(ctypes.CharType)}, {Name: "src", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Extern: true},
	{Name: "strstr", Ret: ctypes.PointerTo(ctypes.CharType), Params: []*Param{{Name: "hay", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}, {Name: "needle", Type: ctypes.PointerTo(ctypes.Qualified(ctypes.CharType))}}, Extern: true},
	{Name: "memset", Ret: ctypes.PointerTo(ctypes.VoidType), Params: []*Param{{Name: "p", Type: ctypes.PointerTo(ctypes.VoidType)}, {Name: "c", Type: ctypes.IntType}, {Name: "n", Type: ctypes.LongType}}, Extern: true},
	{Name: "memcpy", Ret: ctypes.PointerTo(ctypes.VoidType), Params: []*Param{{Name: "dst", Type: ctypes.PointerTo(ctypes.VoidType)}, {Name: "src", Type: ctypes.PointerTo(ctypes.VoidType)}, {Name: "n", Type: ctypes.LongType}}, Extern: true},
	// __hook(id) is the scripted corruption point: the VM invokes any
	// attack callback registered under id, modelling the memory-unsafe
	// write a real exploit would obtain from a buffer overflow.
	{Name: "__hook", Ret: ctypes.VoidType, Params: []*Param{{Name: "id", Type: ctypes.IntType}}, Extern: true},
}

// CheckError is a semantic error with its source position.
type CheckError struct {
	Pos Pos
	Msg string
}

func (e *CheckError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type checker struct {
	file    *File
	funcs   map[string]*FuncDecl
	globals map[string]*VarSym
	scopes  []map[string]*VarSym
	curFn   *FuncDecl
	nextID  int
	errs    []error
}

// Check resolves names, types every expression, inserts implicit pointer
// casts, and assigns dense IDs to every declared variable. The File is
// updated in place; File.Syms lists every variable in ID order.
func Check(f *File) error {
	c := &checker{
		file:    f,
		funcs:   make(map[string]*FuncDecl),
		globals: make(map[string]*VarSym),
	}
	for _, fn := range f.Funcs {
		if prev, dup := c.funcs[fn.Name]; dup {
			// A body may complete an earlier extern declaration.
			if prev.Body == nil && fn.Body != nil {
				c.funcs[fn.Name] = fn
				continue
			}
			if fn.Body == nil {
				continue
			}
			c.errorf(fn.Pos, "function %s redefined", fn.Name)
			continue
		}
		c.funcs[fn.Name] = fn
	}
	for _, b := range Builtins {
		if _, ok := c.funcs[b.Name]; !ok {
			c.funcs[b.Name] = b
			f.Funcs = append(f.Funcs, b)
		}
	}

	// Every type the program names must have a size the address space
	// holds; the lowerer and the VM compute sizes without further checks.
	for _, sd := range f.Structs {
		c.checkSize(sd.Pos, sd.Type)
		for _, fl := range sd.Type.Fields {
			if fl.Type.Kind == ctypes.Pointer {
				c.checkSize(sd.Pos, fl.Type)
			}
		}
	}
	for _, fn := range f.Funcs {
		c.checkSize(fn.Pos, fn.Ret)
		for _, p := range fn.Params {
			c.checkSize(p.Pos, p.Type)
		}
	}

	for _, g := range f.Globals {
		c.checkSize(g.Pos, g.Type)
		if _, dup := c.globals[g.Name]; dup {
			c.errorf(g.Pos, "global %s redeclared", g.Name)
			continue
		}
		sym := &VarSym{Name: g.Name, Type: g.Type, Global: true, DeclPos: g.Pos, ID: c.nextID}
		c.nextID++
		g.Sym = sym
		c.globals[g.Name] = sym
		f.Syms = append(f.Syms, sym)
		if g.Init != nil {
			g.Init = c.checkInit(g.Init, g.Type)
		}
	}

	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		c.checkFunc(fn)
	}
	if len(c.errs) > 0 {
		return c.errs[0]
	}
	return nil
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// checkSize reports a type that cannot be laid out (see
// ctypes.CheckSize).
func (c *checker) checkSize(pos Pos, t *ctypes.Type) {
	if t == nil {
		return
	}
	if err := ctypes.CheckSize(t); err != nil {
		c.errorf(pos, "%v", err)
	}
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*VarSym)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, sym *VarSym) {
	c.scopes[len(c.scopes)-1][name] = sym
	c.file.Syms = append(c.file.Syms, sym)
}

func (c *checker) lookup(name string) (*VarSym, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	s, ok := c.globals[name]
	return s, ok
}

func (c *checker) checkFunc(fn *FuncDecl) {
	c.curFn = fn
	c.push()
	for _, p := range fn.Params {
		sym := &VarSym{Name: p.Name, Type: p.Type, Param: true, DeclFn: fn.Name, DeclPos: p.Pos, ID: c.nextID}
		c.nextID++
		p.Sym = sym
		c.declare(p.Name, sym)
	}
	c.checkBlock(fn.Body)
	c.pop()
	c.curFn = nil
}

func (c *checker) checkBlock(b *BlockStmt) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *BlockStmt:
		c.checkBlock(st)
	case *DeclList:
		for _, d := range st.Decls {
			c.checkStmt(d)
		}
	case *DeclStmt:
		d := st.Decl
		c.checkSize(d.Pos, d.Type)
		sym := &VarSym{Name: d.Name, Type: d.Type, DeclFn: c.curFn.Name, DeclPos: d.Pos, ID: c.nextID}
		c.nextID++
		d.Sym = sym
		if d.Init != nil {
			d.Init = c.checkInit(d.Init, d.Type)
		}
		c.declare(d.Name, sym)
	case *ExprStmt:
		st.X = c.checkExpr(st.X)
	case *IfStmt:
		st.Cond = c.checkExpr(st.Cond)
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *WhileStmt:
		st.Cond = c.checkExpr(st.Cond)
		c.checkStmt(st.Body)
	case *DoWhileStmt:
		c.checkStmt(st.Body)
		st.Cond = c.checkExpr(st.Cond)
	case *SwitchStmt:
		st.Tag = c.checkExpr(st.Tag)
		if t := st.Tag.Type(); t != nil && !t.IsInteger() {
			c.errorf(st.Pos, "switch tag must be an integer, got %s", t)
		}
		seen := map[int64]bool{}
		for i := range st.Cases {
			for _, v := range st.Cases[i].Values {
				if seen[v] {
					c.errorf(st.Cases[i].Pos, "duplicate case value %d", v)
				}
				seen[v] = true
			}
			c.push()
			for _, s2 := range st.Cases[i].Body {
				c.checkStmt(s2)
			}
			c.pop()
		}
	case *ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			st.Cond = c.checkExpr(st.Cond)
		}
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.checkStmt(st.Body)
		c.pop()
	case *ReturnStmt:
		if st.X != nil {
			st.X = c.checkExpr(st.X)
			if c.curFn.Ret.Kind == ctypes.Void {
				c.errorf(st.Pos, "return with value in void function %s", c.curFn.Name)
			} else {
				st.X = c.convert(st.X, c.curFn.Ret, st.Pos)
			}
		} else if c.curFn.Ret.Kind != ctypes.Void {
			c.errorf(st.Pos, "return without value in non-void function %s", c.curFn.Name)
		}
	case *BreakStmt, *ContinueStmt:
		// Loop nesting is validated by the lowerer, which knows targets.
	}
}

// checkInit checks an initializer against the declared type.
func (c *checker) checkInit(e Expr, want *ctypes.Type) Expr {
	e = c.checkExpr(e)
	return c.convert(e, want, e.Position())
}

// convert checks assignability of e to type want, inserting an implicit
// Cast node where C would convert silently. Every pointer conversion —
// explicit or implicit — is thereby visible to the STI analysis as a cast
// edge, matching the paper's "explicitly done by the programmer or by the
// compiler".
func (c *checker) convert(e Expr, want *ctypes.Type, pos Pos) Expr {
	got := e.Type()
	if got == nil {
		return e
	}
	if got.Equal(want) {
		return e
	}
	mkCast := func() Expr {
		cast := &Cast{X: e, Implicit: true}
		cast.Pos = pos
		cast.Ty = want
		return cast
	}
	switch {
	case got.IsInteger() && want.IsInteger():
		return mkCast()
	case (got.Kind == ctypes.Float || got.Kind == ctypes.Double) && (want.Kind == ctypes.Float || want.Kind == ctypes.Double),
		got.IsInteger() && (want.Kind == ctypes.Float || want.Kind == ctypes.Double),
		(got.Kind == ctypes.Float || got.Kind == ctypes.Double) && want.IsInteger():
		return mkCast()
	case got.Kind == ctypes.Pointer && want.Kind == ctypes.Pointer:
		gu, wu := got.Unqualified(), want.Unqualified()
		if gu.Elem.Equal(wu.Elem) {
			return mkCast() // only qualifier differs
		}
		// void* converts implicitly in C; adding const to the pointee is
		// fine; everything else needs an explicit cast.
		if gu.Elem.Kind == ctypes.Void || wu.Elem.Kind == ctypes.Void {
			return mkCast()
		}
		if gu.Elem.Unqualified().Equal(wu.Elem.Unqualified()) {
			return mkCast()
		}
		c.errorf(pos, "cannot implicitly convert %s to %s (explicit cast required)", got, want)
		return e
	case isNull(e) && want.Kind == ctypes.Pointer:
		return mkCast()
	case got.IsInteger() && want.Kind == ctypes.Pointer:
		// Allow the literal 0 as a null pointer constant.
		if il, ok := e.(*IntLit); ok && il.Val == 0 {
			return mkCast()
		}
		c.errorf(pos, "cannot implicitly convert %s to %s", got, want)
		return e
	case got.Kind == ctypes.Array && want.Kind == ctypes.Pointer && got.Elem.Equal(want.Elem):
		return mkCast() // array decay
	}
	c.errorf(pos, "cannot convert %s to %s", got, want)
	return e
}

func isNull(e Expr) bool {
	_, ok := e.(*NullLit)
	return ok
}

// decay converts array-typed expressions to pointers, as C does in rvalue
// contexts.
func decay(e Expr) Expr {
	t := e.Type()
	if t != nil && t.Kind == ctypes.Array {
		cast := &Cast{X: e, Implicit: true}
		cast.Pos = e.Position()
		cast.Ty = ctypes.PointerTo(t.Elem)
		return cast
	}
	return e
}

func (c *checker) checkExpr(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit:
		if x.Ty == nil {
			if x.Val > 0x7FFFFFFF || x.Val < -0x80000000 {
				x.Ty = ctypes.LongType
			} else {
				x.Ty = ctypes.IntType
			}
		}
	case *FloatLit:
		x.Ty = ctypes.DoubleType
	case *CharLit:
		x.Ty = ctypes.CharType
	case *StrLit:
		x.Ty = ctypes.PointerTo(ctypes.CharType)
	case *NullLit:
		x.Ty = ctypes.PointerTo(ctypes.VoidType)
	case *Ident:
		if sym, ok := c.lookup(x.Name); ok {
			x.Var = sym
			x.Ty = sym.Type
			if sym.DeclFn == "" && !sym.Global {
				// defensive: should not happen
				c.errorf(x.Pos, "internal: variable %s has no home", x.Name)
			}
			break
		}
		if fn, ok := c.funcs[x.Name]; ok {
			x.Fun = fn
			x.Ty = ctypes.PointerTo(fn.Signature())
			break
		}
		c.errorf(x.Pos, "undeclared identifier %q", x.Name)
		x.Ty = ctypes.IntType
	case *Unary:
		x.X = c.checkExpr(x.X)
		switch x.Op {
		case Deref:
			x.X = decay(x.X)
			t := x.X.Type()
			if t.Kind != ctypes.Pointer {
				c.errorf(x.Pos, "cannot dereference non-pointer %s", t)
				x.Ty = ctypes.IntType
			} else {
				x.Ty = t.Elem
			}
		case Addr:
			if !isLvalue(x.X) {
				c.errorf(x.Pos, "cannot take address of a non-lvalue")
			}
			x.Ty = ctypes.PointerTo(x.X.Type())
		case Neg, BitNot:
			if !x.X.Type().IsInteger() && x.X.Type().Kind != ctypes.Float && x.X.Type().Kind != ctypes.Double {
				c.errorf(x.Pos, "unary operator on non-arithmetic type %s", x.X.Type())
			}
			x.Ty = x.X.Type()
		case LogNot:
			x.Ty = ctypes.IntType
		}
	case *Binary:
		x.X = decay(c.checkExpr(x.X))
		x.Y = decay(c.checkExpr(x.Y))
		x.Ty = c.binaryType(x)
	case *Assign:
		x.LHS = c.checkExpr(x.LHS)
		x.RHS = decay(c.checkExpr(x.RHS))
		if !isLvalue(x.LHS) {
			c.errorf(x.Pos, "assignment to non-lvalue")
		}
		lt := x.LHS.Type()
		if lt.Const {
			c.errorf(x.Pos, "assignment to const %s", lt)
		}
		if x.Op == ASSIGN {
			x.RHS = c.convert(x.RHS, lt.Unqualified(), x.Pos)
		} else if lt.Kind == ctypes.Pointer {
			// Only += and -= make sense on pointers.
			if x.Op != PLUSEQ && x.Op != MINUSEQ {
				c.errorf(x.Pos, "invalid compound assignment %s on pointer", x.Op)
			}
			if !x.RHS.Type().IsInteger() {
				c.errorf(x.Pos, "pointer compound assignment needs an integer, got %s", x.RHS.Type())
			}
		} else {
			x.RHS = c.convert(x.RHS, lt.Unqualified(), x.Pos)
		}
		x.Ty = lt
	case *IncDec:
		x.X = c.checkExpr(x.X)
		if !isLvalue(x.X) {
			c.errorf(x.Pos, "++/-- on non-lvalue")
		}
		t := x.X.Type()
		if !t.IsInteger() && t.Kind != ctypes.Pointer {
			c.errorf(x.Pos, "++/-- on %s", t)
		}
		if t.Const {
			c.errorf(x.Pos, "++/-- on const %s", t)
		}
		x.Ty = t
	case *Cond:
		x.C = c.checkExpr(x.C)
		x.A = decay(c.checkExpr(x.A))
		x.B = decay(c.checkExpr(x.B))
		at, bt := x.A.Type(), x.B.Type()
		switch {
		case at == nil || bt == nil:
			x.Ty = ctypes.IntType
		case at.Equal(bt):
			x.Ty = at
		case at.IsInteger() && bt.IsInteger():
			x.Ty = ctypes.LongType
			x.A = c.convert(x.A, ctypes.LongType, x.Pos)
			x.B = c.convert(x.B, ctypes.LongType, x.Pos)
		case at.Kind == ctypes.Pointer && isNull(x.B):
			x.B = c.convert(x.B, at, x.Pos)
			x.Ty = at
		case bt.Kind == ctypes.Pointer && isNull(x.A):
			x.A = c.convert(x.A, bt, x.Pos)
			x.Ty = bt
		case at.Kind == ctypes.Pointer && bt.Kind == ctypes.Pointer &&
			at.Unqualified().Equal(bt.Unqualified()):
			x.Ty = at.Unqualified()
		default:
			c.errorf(x.Pos, "incompatible ternary arms: %s vs %s", at, bt)
			x.Ty = at
		}
	case *Call:
		return c.checkCall(x)
	case *Member:
		x.X = c.checkExpr(x.X)
		xt := x.X.Type()
		var st *ctypes.Type
		if x.Arrow {
			if xt.Kind != ctypes.Pointer || xt.Elem.Unqualified().Kind != ctypes.Struct {
				c.errorf(x.Pos, "-> on non-struct-pointer %s", xt)
				x.Ty = ctypes.IntType
				return x
			}
			st = xt.Elem.Unqualified()
		} else {
			if xt.Unqualified().Kind != ctypes.Struct {
				c.errorf(x.Pos, ". on non-struct %s", xt)
				x.Ty = ctypes.IntType
				return x
			}
			st = xt.Unqualified()
		}
		if st.Incomplete {
			c.errorf(x.Pos, "use of incomplete struct %s", st.Name)
			x.Ty = ctypes.IntType
			return x
		}
		f, ok := st.FieldByName(x.Name)
		if !ok {
			c.errorf(x.Pos, "struct %s has no field %q", st.Name, x.Name)
			x.Ty = ctypes.IntType
			return x
		}
		x.Field = f
		x.StructTy = st
		x.Ty = f.Type
	case *Index:
		x.X = decay(c.checkExpr(x.X))
		x.I = c.checkExpr(x.I)
		xt := x.X.Type()
		if xt.Kind != ctypes.Pointer {
			c.errorf(x.Pos, "indexing non-pointer %s", xt)
			x.Ty = ctypes.IntType
			return x
		}
		if !x.I.Type().IsInteger() {
			c.errorf(x.Pos, "index must be an integer, got %s", x.I.Type())
		}
		x.Ty = xt.Elem
	case *Cast:
		c.checkSize(x.Pos, x.Ty)
		x.X = decay(c.checkExpr(x.X))
		// Any scalar-to-scalar cast is permitted, as in C.
		from, to := x.X.Type(), x.Ty
		if from != nil && !from.IsScalar() && !from.Equal(to) {
			c.errorf(x.Pos, "invalid cast from %s", from)
		}
	case *sizeofOfExpr:
		op := c.checkExpr(x.operand)
		s := &SizeofExpr{Of: op.Type()}
		s.Pos = x.Position()
		s.Ty = ctypes.LongType
		c.checkSize(s.Pos, s.Of)
		return s
	case *SizeofExpr:
		c.checkSize(x.Pos, x.Of)
		x.Ty = ctypes.LongType
	}
	return e
}

func (c *checker) binaryType(x *Binary) *ctypes.Type {
	xt, yt := x.X.Type(), x.Y.Type()
	switch x.Op {
	case Eq, Ne, Lt, Le, Gt, Ge, LogAnd, LogOr:
		return ctypes.IntType
	case Add:
		if xt.Kind == ctypes.Pointer && yt.IsInteger() {
			return xt
		}
		if yt.Kind == ctypes.Pointer && xt.IsInteger() {
			return yt
		}
	case Sub:
		if xt.Kind == ctypes.Pointer && yt.IsInteger() {
			return xt
		}
		if xt.Kind == ctypes.Pointer && yt.Kind == ctypes.Pointer {
			return ctypes.LongType
		}
	}
	if xt.Kind == ctypes.Pointer || yt.Kind == ctypes.Pointer {
		if x.Op != Add && x.Op != Sub {
			c.errorf(x.Pos, "invalid pointer operands to binary operator")
		}
		if xt.Kind == ctypes.Pointer {
			return xt
		}
		return yt
	}
	// Usual arithmetic conversions, collapsed: the wider side wins.
	if xt.Kind == ctypes.Double || yt.Kind == ctypes.Double {
		return ctypes.DoubleType
	}
	if xt.Kind == ctypes.Float || yt.Kind == ctypes.Float {
		return ctypes.FloatType
	}
	if xt.Kind == ctypes.Long || yt.Kind == ctypes.Long {
		return ctypes.LongType
	}
	return ctypes.IntType
}

func (c *checker) checkCall(x *Call) Expr {
	// Resolve the callee: a direct function name, or any expression of
	// function-pointer type (an indirect call).
	x.Fun = c.checkExpr(x.Fun)
	var sig *ctypes.Type
	ft := x.Fun.Type()
	switch {
	case ft != nil && ft.Kind == ctypes.Pointer && ft.Elem.Kind == ctypes.Func:
		sig = ft.Elem
	case ft != nil && ft.Kind == ctypes.Func:
		sig = ft
	default:
		c.errorf(x.Pos, "called object is not a function (type %s)", ft)
		x.Ty = ctypes.IntType
		return x
	}
	for i := range x.Args {
		x.Args[i] = decay(c.checkExpr(x.Args[i]))
	}
	if len(x.Args) < len(sig.Params) || (len(x.Args) > len(sig.Params) && !sig.Variadic) {
		c.errorf(x.Pos, "wrong number of arguments: got %d, want %d", len(x.Args), len(sig.Params))
	}
	for i := 0; i < len(sig.Params) && i < len(x.Args); i++ {
		x.Args[i] = c.convert(x.Args[i], sig.Params[i], x.Args[i].Position())
	}
	x.Ty = sig.Ret
	return x
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return x.Var != nil
	case *Unary:
		return x.Op == Deref
	case *Member:
		if x.Arrow {
			return true
		}
		return isLvalue(x.X)
	case *Index:
		return true
	}
	return false
}
