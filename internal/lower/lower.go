// Package lower translates the checked cminor AST into mir, the way Clang
// at -O0 lowers C to LLVM IR: every variable gets an alloca, every read is
// a load and every write a store, and every conversion is an explicit cast
// instruction. Memory instructions carry the Slot debug metadata (which
// variable or composite field is accessed) that the STI analysis keys on.
package lower

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/mir"
)

// Options controls how Lower runs. The zero value is the default
// configuration.
type Options struct {
	// Workers bounds the number of goroutines lowering function bodies.
	// 0 means GOMAXPROCS; 1 forces the serial path. Output is
	// bit-identical for every worker count: each function is lowered
	// into its own lowerer with a function-local string pool, and the
	// pools are merged into the program in function order afterwards,
	// reproducing the serial pool exactly.
	Workers int
}

// Lower converts a checked File into a mir.Program. The returned program
// passes mir.Verify.
func Lower(f *cminor.File) (*mir.Program, error) {
	return LowerWithOptions(f, Options{})
}

// LowerWithOptions is Lower with explicit concurrency control.
func LowerWithOptions(f *cminor.File, opts Options) (*mir.Program, error) {
	p := &mir.Program{
		ByName: make(map[string]*mir.Func),
		Types:  f.Types,
	}
	for _, s := range f.Syms {
		p.Vars = append(p.Vars, &mir.VarInfo{
			Name: s.Name, Type: s.Type, Global: s.Global, Param: s.Param, DeclFn: s.DeclFn,
		})
	}
	for _, g := range f.Globals {
		p.Globals = append(p.Globals, &mir.Global{Name: g.Name, Type: g.Type, Var: g.Sym.ID})
	}

	// Synthetic __init runs global initializers before main.
	initLw := &lowerer{prog: p, file: f, s: getScratch()}
	initFn := &mir.Func{Name: mir.InitFuncName, Ret: ctypes.VoidType}
	p.Funcs = append(p.Funcs, initFn)
	p.ByName[initFn.Name] = initFn
	initLw.beginFunc(initFn, nil)
	for gi, g := range f.Globals {
		if g.Init == nil {
			continue
		}
		v := initLw.expr(g.Init)
		addr := initLw.emitDst(mir.Instr{Op: mir.GlobalAddr, Imm: int64(gi), Ty: ctypes.PointerTo(g.Type), Pos: g.Pos,
			Slot: mir.Slot{Kind: mir.SlotVar, Var: g.Sym.ID}})
		initLw.emit(mir.Instr{Op: mir.Store, A: addr, B: v, Ty: g.Type, Pos: g.Pos,
			Slot: mir.Slot{Kind: mir.SlotVar, Var: g.Sym.ID}})
	}
	initLw.emit(mir.Instr{Op: mir.RetOp, A: mir.NoReg})
	initLw.endFunc()
	scratchPool.Put(initLw.s)
	if initLw.err != nil {
		return nil, initLw.err
	}

	for _, fn := range f.Funcs {
		mf := &mir.Func{
			Name: fn.Name, Ret: fn.Ret, Variadic: fn.Variadic, Extern: fn.Body == nil,
		}
		for _, prm := range fn.Params {
			mf.Params = append(mf.Params, prm.Type)
			if prm.Sym != nil {
				mf.ParamVar = append(mf.ParamVar, prm.Sym.ID)
			} else {
				mf.ParamVar = append(mf.ParamVar, -1)
			}
		}
		p.Funcs = append(p.Funcs, mf)
		p.ByName[mf.Name] = mf
	}

	// Lower every function body. Bodies are independent — the only
	// program-level mutable state a body touches is the string pool,
	// which each lowerer keeps locally — so they fan out across a
	// bounded worker set. Funcs and ByName are fully built above and
	// only read from here on. Each worker borrows one pooled scratch
	// for all the bodies it lowers.
	type unit struct {
		fn *cminor.FuncDecl
		lw *lowerer
	}
	var units []unit
	for _, fn := range f.Funcs {
		if fn.Body != nil {
			units = append(units, unit{fn: fn, lw: &lowerer{prog: p, file: f}})
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	lowerOne := func(s *scratch, u unit) error {
		u.lw.s = s
		err := u.lw.lowerFunc(u.fn, p.ByName[u.fn.Name])
		u.lw.s = nil
		return err
	}
	// A scratch goes back to the pool only after a normal return: endFunc
	// leaves it empty, while a body that panicked midway would not.
	if workers <= 1 {
		s := getScratch()
		var err error
		for i := 0; i < len(units) && err == nil; i++ {
			err = lowerOne(s, units[i])
		}
		scratchPool.Put(s)
		if err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, len(units))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := getScratch()
				for i := int(next.Add(1)) - 1; i < len(units); i = int(next.Add(1)) - 1 {
					errs[i] = lowerOne(s, units[i])
				}
				scratchPool.Put(s)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Merge the function-local string pools into the program pool in
	// function order (__init first), rewriting each StrConst through the
	// local-index -> pool-index remap. Because AddString dedups in
	// insertion order, the resulting pool is exactly what the serial
	// single-pool lowering produced.
	mergeStrings(p, initLw, initFn)
	for _, u := range units {
		mergeStrings(p, u.lw, p.ByName[u.fn.Name])
	}

	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

func mergeStrings(p *mir.Program, lw *lowerer, mf *mir.Func) {
	if len(lw.strs) == 0 {
		return
	}
	remap := make([]int, len(lw.strs))
	for i, s := range lw.strs {
		remap[i] = p.AddString(s)
	}
	for _, b := range mf.Blocks {
		for j := range b.Instrs {
			if b.Instrs[j].Op == mir.StrConst {
				b.Instrs[j].Imm = int64(remap[b.Instrs[j].Imm])
			}
		}
	}
}

type loopCtx struct {
	breakBlk, continueBlk int
}

type lowerer struct {
	prog *mir.Program
	file *cminor.File

	fn      *mir.Func
	cur     int // index of the block being filled
	nextReg int
	loops   []loopCtx
	err     error
	s       *scratch // borrowed for the function being lowered

	// Function-local string pool. StrConst Imm values index this pool
	// until mergeStrings rewrites them to program-pool indices; keeping
	// the pool local is what lets function bodies lower concurrently.
	strs   []string
	strMap map[string]int
}

// scratch is one lowering worker's reusable emission storage. A body
// fills each block in one uninterrupted run, so every block is a span of
// one accumulator, in the order the blocks were filled; endFunc copies
// the hoisted allocas, then the spans in block order, into one exact-size
// arena per function. A scratch lives in scratchPool across calls, so
// steady-state lowering allocates only what the program keeps, and it
// holds no more than the largest function it has lowered. Between
// functions it is empty and cleared: mir.Instr holds type pointers, and
// a pooled buffer must never pin a dead program.
type scratch struct {
	out     []mir.Instr     // the blocks' runs, in the order they were filled
	spans   []span          // per block index: its run of out
	allocas []mir.Instr     // hoisted to the entry block at endFunc
	slots   map[int]mir.Reg // VarSym.ID -> register holding the slot address
}

// span is one block's run of scratch.out; start is -1 until the block is
// filled.
type span struct{ start, end int }

var scratchPool = sync.Pool{New: func() any { return &scratch{slots: make(map[int]mir.Reg)} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (lw *lowerer) addString(s string) int {
	if i, ok := lw.strMap[s]; ok {
		return i
	}
	if lw.strMap == nil {
		lw.strMap = make(map[string]int)
	}
	i := len(lw.strs)
	lw.strs = append(lw.strs, s)
	lw.strMap[s] = i
	return i
}

// emitAlloca hoists every alloca to the entry block, as Clang does at -O0:
// a declaration inside a loop must not grow the frame per iteration.
func (lw *lowerer) emitAlloca(in mir.Instr) mir.Reg {
	in.Dst = lw.reg()
	in.A, in.B = mir.NoReg, mir.NoReg
	lw.s.allocas = append(lw.s.allocas, in)
	return in.Dst
}

func (lw *lowerer) beginFunc(f *mir.Func, params []*cminor.Param) {
	lw.fn = f
	lw.nextReg = len(params)
	lw.loops = nil
	lw.cur = -1
	lw.setBlock(lw.newBlock("entry"))
	for i, prm := range params {
		if prm.Sym == nil {
			continue
		}
		slot := lw.emitAlloca(mir.Instr{Op: mir.Alloca, Ty: prm.Type, Pos: prm.Pos,
			Slot: mir.Slot{Kind: mir.SlotVar, Var: prm.Sym.ID}})
		lw.s.slots[prm.Sym.ID] = slot
		lw.emit(mir.Instr{Op: mir.Store, A: slot, B: i, Ty: prm.Type, Pos: prm.Pos,
			Slot: mir.Slot{Kind: mir.SlotVar, Var: prm.Sym.ID}})
	}
}

// endFunc terminates the last block, then copies the function into one
// exact-size arena: the allocas at the head of the entry block, then
// every block's span, each block a capacity-capped subslice so no
// block's append can bleed into its neighbour. It leaves the scratch
// empty and cleared for the next function.
func (lw *lowerer) endFunc() {
	if !lw.terminated() {
		if lw.fn.Ret.Kind == ctypes.Void {
			lw.emit(mir.Instr{Op: mir.RetOp, A: mir.NoReg})
		} else {
			z := lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: lw.fn.Ret})
			lw.emit(mir.Instr{Op: mir.RetOp, A: z})
		}
	}
	s := lw.s
	s.spans[lw.cur].end = len(s.out)
	arena := make([]mir.Instr, len(s.allocas)+len(s.out))
	off := copy(arena, s.allocas)
	start := 0
	for i, sp := range s.spans {
		if sp.start >= 0 {
			off += copy(arena[off:], s.out[sp.start:sp.end])
		}
		if off > start {
			lw.fn.Blocks[i].Instrs = arena[start:off:off]
		}
		start = off
	}
	clear(s.out)
	clear(s.allocas)
	clear(s.slots)
	s.out, s.spans, s.allocas = s.out[:0], s.spans[:0], s.allocas[:0]
	lw.fn.NumRegs = lw.nextReg
}

func (lw *lowerer) lowerFunc(fn *cminor.FuncDecl, mf *mir.Func) error {
	lw.beginFunc(mf, fn.Params)
	lw.block(fn.Body)
	lw.endFunc()
	return lw.err
}

func (lw *lowerer) fail(pos cminor.Pos, format string, args ...interface{}) {
	if lw.err == nil {
		lw.err = fmt.Errorf("lower: %s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (lw *lowerer) reg() mir.Reg { r := lw.nextReg; lw.nextReg++; return r }

func (lw *lowerer) emit(in mir.Instr) {
	if in.Dst == 0 && in.Op != mir.Nop {
		// Dst zero is a valid register; instructions without a
		// destination must set NoReg explicitly. Normalize the common
		// zero-value mistake for instructions that never write.
		switch in.Op {
		case mir.Store, mir.RetOp, mir.Jmp, mir.Br, mir.PPAdd:
			in.Dst = mir.NoReg
		}
	}
	if in.A == 0 {
		switch in.Op {
		case mir.Const, mir.ConstF, mir.StrConst, mir.Alloca, mir.GlobalAddr, mir.FuncAddr, mir.Jmp, mir.PPAdd:
			in.A = mir.NoReg
		}
	}
	if in.B == 0 {
		// Only instructions that never read B are normalized; BinInstr,
		// CmpInstr, Store, PacSign/PacAuth (location) and the PP ops all
		// use B and must set it explicitly.
		switch in.Op {
		case mir.Const, mir.ConstF, mir.StrConst, mir.Alloca, mir.GlobalAddr, mir.FuncAddr,
			mir.Load, mir.FieldAddr, mir.CastOp, mir.RetOp, mir.Jmp,
			mir.PacStrip, mir.PPAddTBI, mir.PPAdd:
			in.B = mir.NoReg
		}
	}
	lw.s.out = append(lw.s.out, in)
}

func (lw *lowerer) emitDst(in mir.Instr) mir.Reg {
	in.Dst = lw.reg()
	lw.emit(in)
	return in.Dst
}

// newBlock appends a fresh, not yet filled block to the function.
func (lw *lowerer) newBlock(name string) *mir.Block {
	lw.s.spans = append(lw.s.spans, span{start: -1})
	return lw.fn.NewBlock(name)
}

// setBlock ends the current block's run and starts filling b. A block is
// filled in one run: the lowering never returns to a block it has left,
// and endFunc's copy depends on that.
func (lw *lowerer) setBlock(b *mir.Block) {
	s := lw.s
	if lw.cur >= 0 {
		s.spans[lw.cur].end = len(s.out)
	}
	if s.spans[b.Index].start >= 0 {
		panic(fmt.Sprintf("lower: %s returns to block %d", lw.fn.Name, b.Index))
	}
	s.spans[b.Index].start = len(s.out)
	lw.cur = b.Index
}

// terminated reports whether the block being filled already ends in a
// terminator.
func (lw *lowerer) terminated() bool {
	b := mir.Block{Instrs: lw.s.out[lw.s.spans[lw.cur].start:]}
	return b.Terminated()
}

func (lw *lowerer) jump(to *mir.Block) {
	if !lw.terminated() {
		lw.emit(mir.Instr{Op: mir.Jmp, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, Targets: [2]int{to.Index}})
	}
}

func (lw *lowerer) branch(cond mir.Reg, t, f *mir.Block) {
	if !lw.terminated() {
		lw.emit(mir.Instr{Op: mir.Br, Dst: mir.NoReg, A: cond, B: mir.NoReg, Targets: [2]int{t.Index, f.Index}})
	}
}

// ---------- Statements ----------

func (lw *lowerer) block(b *cminor.BlockStmt) {
	for _, s := range b.Stmts {
		lw.stmt(s)
	}
}

func (lw *lowerer) stmt(s cminor.Stmt) {
	switch st := s.(type) {
	case *cminor.BlockStmt:
		lw.block(st)
	case *cminor.DeclList:
		for _, d := range st.Decls {
			lw.stmt(d)
		}
	case *cminor.DeclStmt:
		d := st.Decl
		slot := lw.emitAlloca(mir.Instr{Op: mir.Alloca, Ty: d.Type, Pos: d.Pos,
			Slot: mir.Slot{Kind: mir.SlotVar, Var: d.Sym.ID}})
		lw.s.slots[d.Sym.ID] = slot
		if d.Init != nil {
			v := lw.expr(d.Init)
			lw.emit(mir.Instr{Op: mir.Store, A: slot, B: v, Ty: d.Type, Pos: d.Pos,
				Slot: mir.Slot{Kind: mir.SlotVar, Var: d.Sym.ID}})
		}
	case *cminor.ExprStmt:
		lw.expr(st.X)
	case *cminor.IfStmt:
		cond := lw.condition(st.Cond)
		thenB := lw.newBlock("if.then")
		var elseB *mir.Block
		done := lw.newBlock("if.done")
		if st.Else != nil {
			elseB = lw.newBlock("if.else")
			lw.branch(cond, thenB, elseB)
		} else {
			lw.branch(cond, thenB, done)
		}
		lw.setBlock(thenB)
		lw.stmt(st.Then)
		lw.jump(done)
		if st.Else != nil {
			lw.setBlock(elseB)
			lw.stmt(st.Else)
			lw.jump(done)
		}
		lw.setBlock(done)
	case *cminor.WhileStmt:
		head := lw.newBlock("while.head")
		body := lw.newBlock("while.body")
		done := lw.newBlock("while.done")
		lw.jump(head)
		lw.setBlock(head)
		cond := lw.condition(st.Cond)
		lw.branch(cond, body, done)
		lw.setBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakBlk: done.Index, continueBlk: head.Index})
		lw.stmt(st.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.jump(head)
		lw.setBlock(done)
	case *cminor.DoWhileStmt:
		body := lw.newBlock("do.body")
		head := lw.newBlock("do.cond")
		done := lw.newBlock("do.done")
		lw.jump(body)
		lw.setBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakBlk: done.Index, continueBlk: head.Index})
		lw.stmt(st.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.jump(head)
		lw.setBlock(head)
		cond := lw.condition(st.Cond)
		lw.branch(cond, body, done)
		lw.setBlock(done)
	case *cminor.SwitchStmt:
		lw.switchStmt(st)
	case *cminor.ForStmt:
		if st.Init != nil {
			lw.stmt(st.Init)
		}
		head := lw.newBlock("for.head")
		body := lw.newBlock("for.body")
		post := lw.newBlock("for.post")
		done := lw.newBlock("for.done")
		lw.jump(head)
		lw.setBlock(head)
		if st.Cond != nil {
			cond := lw.condition(st.Cond)
			lw.branch(cond, body, done)
		} else {
			lw.jump(body)
		}
		lw.setBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakBlk: done.Index, continueBlk: post.Index})
		lw.stmt(st.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.jump(post)
		lw.setBlock(post)
		if st.Post != nil {
			lw.stmt(st.Post)
		}
		lw.jump(head)
		lw.setBlock(done)
	case *cminor.ReturnStmt:
		if st.X != nil {
			v := lw.expr(st.X)
			lw.emit(mir.Instr{Op: mir.RetOp, A: v, Pos: st.Pos})
		} else {
			lw.emit(mir.Instr{Op: mir.RetOp, A: mir.NoReg, Pos: st.Pos})
		}
		// Subsequent statements in this block are unreachable; give them
		// a fresh block so verification stays happy.
		lw.setBlock(lw.newBlock("dead"))
	case *cminor.BreakStmt:
		if len(lw.loops) == 0 {
			lw.fail(st.Pos, "break outside a loop")
			return
		}
		lw.emit(mir.Instr{Op: mir.Jmp, A: mir.NoReg, Dst: mir.NoReg, Targets: [2]int{lw.loops[len(lw.loops)-1].breakBlk}})
		lw.setBlock(lw.newBlock("dead"))
	case *cminor.ContinueStmt:
		if len(lw.loops) == 0 || lw.loops[len(lw.loops)-1].continueBlk < 0 {
			lw.fail(st.Pos, "continue outside a loop")
			return
		}
		lw.emit(mir.Instr{Op: mir.Jmp, A: mir.NoReg, Dst: mir.NoReg, Targets: [2]int{lw.loops[len(lw.loops)-1].continueBlk}})
		lw.setBlock(lw.newBlock("dead"))
	default:
		lw.fail(cminor.Pos{}, "unknown statement %T", s)
	}
}

// switchStmt lowers a C switch: a chain of equality tests dispatching to
// per-case blocks laid out in source order, so fallthrough is simply
// falling into the next block. break jumps to done.
func (lw *lowerer) switchStmt(st *cminor.SwitchStmt) {
	tag := lw.expr(st.Tag)
	done := lw.newBlock("switch.done")
	caseBlocks := make([]*mir.Block, len(st.Cases))
	for i := range st.Cases {
		caseBlocks[i] = lw.newBlock("switch.case")
	}
	// Dispatch chain.
	for i, cs := range st.Cases {
		if cs.IsDefault {
			continue
		}
		for _, v := range cs.Values {
			next := lw.newBlock("switch.test")
			cv := lw.emitDst(mir.Instr{Op: mir.Const, Imm: v, Ty: ctypes.LongType})
			eq := lw.emitDst(mir.Instr{Op: mir.CmpInstr, CmpSub: mir.Eq, A: tag, B: cv, Ty: ctypes.IntType})
			lw.branch(eq, caseBlocks[i], next)
			lw.setBlock(next)
		}
	}
	if st.Default >= 0 {
		lw.jump(caseBlocks[st.Default])
	} else {
		lw.jump(done)
	}
	// Case bodies with fallthrough.
	lw.loops = append(lw.loops, loopCtx{breakBlk: done.Index, continueBlk: lw.continueTarget()})
	for i, cs := range st.Cases {
		lw.setBlock(caseBlocks[i])
		for _, s := range cs.Body {
			lw.stmt(s)
		}
		if i+1 < len(caseBlocks) {
			lw.jump(caseBlocks[i+1]) // fallthrough
		} else {
			lw.jump(done)
		}
	}
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.setBlock(done)
}

// continueTarget returns the innermost loop's continue block, or -1 when
// not inside a loop (a continue inside a bare switch is then an error the
// stmt lowering reports).
func (lw *lowerer) continueTarget() int {
	if len(lw.loops) == 0 {
		return -1
	}
	return lw.loops[len(lw.loops)-1].continueBlk
}

// condition lowers an expression used as a branch condition to a 0/1 reg.
func (lw *lowerer) condition(e cminor.Expr) mir.Reg {
	v := lw.expr(e)
	// Comparisons already produce 0/1; normalize everything else.
	if b, ok := e.(*cminor.Binary); ok {
		switch b.Op {
		case cminor.Eq, cminor.Ne, cminor.Lt, cminor.Le, cminor.Gt, cminor.Ge, cminor.LogAnd, cminor.LogOr:
			return v
		}
	}
	z := lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.LongType})
	return lw.emitDst(mir.Instr{Op: mir.CmpInstr, CmpSub: mir.Ne, A: v, B: z, Ty: ctypes.IntType})
}

// ---------- Lvalues ----------

// place is an lvalue: an address register plus the debug Slot describing
// what lives there.
type place struct {
	addr mir.Reg
	slot mir.Slot
	ty   *ctypes.Type
}

func (lw *lowerer) address(e cminor.Expr) place {
	switch x := e.(type) {
	case *cminor.Ident:
		if x.Var == nil {
			lw.fail(x.Position(), "cannot take the place of function %s", x.Name)
			return place{addr: lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.LongType})}
		}
		slot := mir.Slot{Kind: mir.SlotVar, Var: x.Var.ID}
		if x.Var.Global {
			gi := lw.globalIndex(x.Var)
			a := lw.emitDst(mir.Instr{Op: mir.GlobalAddr, Imm: int64(gi), Ty: ctypes.PointerTo(x.Var.Type), Slot: slot, Pos: x.Position()})
			return place{addr: a, slot: slot, ty: x.Var.Type}
		}
		r, ok := lw.s.slots[x.Var.ID]
		if !ok {
			lw.fail(x.Position(), "variable %s has no slot", x.Name)
			r = lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.LongType})
		}
		return place{addr: r, slot: slot, ty: x.Var.Type}

	case *cminor.Unary:
		if x.Op != cminor.Deref {
			break
		}
		a := lw.expr(x.X)
		return place{addr: a, slot: mir.Slot{Kind: mir.SlotNone}, ty: x.Ty}

	case *cminor.Member:
		var base mir.Reg
		if x.Arrow {
			base = lw.expr(x.X)
		} else {
			base = lw.address(x.X).addr
		}
		fieldIdx := lw.fieldIndex(x.StructTy, x.Name)
		slot := mir.Slot{Kind: mir.SlotField, Struct: x.StructTy, Field: fieldIdx}
		a := lw.emitDst(mir.Instr{Op: mir.FieldAddr, A: base, Imm: int64(x.Field.Offset),
			Ty: ctypes.PointerTo(x.Field.Type), Slot: slot, Pos: x.Position()})
		return place{addr: a, slot: slot, ty: x.Field.Type}

	case *cminor.Index:
		base := lw.expr(x.X)
		idx := lw.expr(x.I)
		elem := x.Ty
		a := lw.emitDst(mir.Instr{Op: mir.IndexAddr, A: base, B: idx, Imm: int64(elem.Size()),
			Ty: ctypes.PointerTo(elem), Pos: x.Position()})
		return place{addr: a, slot: mir.Slot{Kind: mir.SlotElem}, ty: elem}
	}
	lw.fail(e.Position(), "expression is not an lvalue: %T", e)
	return place{addr: lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.LongType})}
}

func (lw *lowerer) fieldIndex(st *ctypes.Type, name string) int {
	for i, f := range st.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func (lw *lowerer) globalIndex(sym *cminor.VarSym) int {
	for i, g := range lw.prog.Globals {
		if g.Var == sym.ID {
			return i
		}
	}
	lw.fail(sym.DeclPos, "global %s not found", sym.Name)
	return 0
}

// ---------- Expressions ----------

func (lw *lowerer) expr(e cminor.Expr) mir.Reg {
	switch x := e.(type) {
	case *cminor.IntLit:
		return lw.emitDst(mir.Instr{Op: mir.Const, Imm: x.Val, Ty: x.Ty, Pos: x.Position()})
	case *cminor.CharLit:
		return lw.emitDst(mir.Instr{Op: mir.Const, Imm: int64(x.Val), Ty: x.Ty, Pos: x.Position()})
	case *cminor.FloatLit:
		return lw.emitDst(mir.Instr{Op: mir.ConstF, Imm: int64(math.Float64bits(x.Val)), Ty: x.Ty, Pos: x.Position()})
	case *cminor.NullLit:
		return lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: x.Ty, Pos: x.Position()})
	case *cminor.StrLit:
		idx := lw.addString(x.Val)
		return lw.emitDst(mir.Instr{Op: mir.StrConst, Imm: int64(idx), Ty: x.Ty, Pos: x.Position()})
	case *cminor.SizeofExpr:
		return lw.emitDst(mir.Instr{Op: mir.Const, Imm: int64(x.Of.Size()), Ty: x.Ty, Pos: x.Position()})

	case *cminor.Ident:
		if x.Fun != nil {
			return lw.emitDst(mir.Instr{Op: mir.FuncAddr, Callee: x.Fun.Name, Ty: x.Ty, Pos: x.Position()})
		}
		pl := lw.address(x)
		return lw.emitDst(mir.Instr{Op: mir.Load, A: pl.addr, Ty: x.Var.Type, Slot: pl.slot, Pos: x.Position()})

	case *cminor.Unary:
		switch x.Op {
		case cminor.Deref:
			a := lw.expr(x.X)
			return lw.emitDst(mir.Instr{Op: mir.Load, A: a, Ty: x.Ty, Slot: mir.Slot{Kind: mir.SlotNone}, Pos: x.Position()})
		case cminor.Addr:
			return lw.address(x.X).addr
		case cminor.Neg:
			v := lw.expr(x.X)
			if isFloat(x.Ty) {
				z := lw.emitDst(mir.Instr{Op: mir.ConstF, Imm: 0, Ty: x.Ty})
				return lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.FSub, A: z, B: v, Ty: x.Ty, Pos: x.Position()})
			}
			z := lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: x.Ty})
			return lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.Sub, A: z, B: v, Ty: x.Ty, Pos: x.Position()})
		case cminor.BitNot:
			v := lw.expr(x.X)
			m := lw.emitDst(mir.Instr{Op: mir.Const, Imm: -1, Ty: x.Ty})
			return lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.Xor, A: v, B: m, Ty: x.Ty, Pos: x.Position()})
		case cminor.LogNot:
			v := lw.expr(x.X)
			z := lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.LongType})
			return lw.emitDst(mir.Instr{Op: mir.CmpInstr, CmpSub: mir.Eq, A: v, B: z, Ty: ctypes.IntType, Pos: x.Position()})
		}

	case *cminor.Binary:
		return lw.binary(x)

	case *cminor.Assign:
		return lw.assign(x)

	case *cminor.IncDec:
		pl := lw.address(x.X)
		old := lw.emitDst(mir.Instr{Op: mir.Load, A: pl.addr, Ty: pl.ty, Slot: pl.slot, Pos: x.Position()})
		step := int64(1)
		if pl.ty.Kind == ctypes.Pointer {
			step = int64(pl.ty.Elem.Size())
		}
		if x.Decr {
			step = -step
		}
		d := lw.emitDst(mir.Instr{Op: mir.Const, Imm: step, Ty: ctypes.LongType})
		nv := lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.Add, A: old, B: d, Ty: pl.ty, Pos: x.Position()})
		lw.emit(mir.Instr{Op: mir.Store, A: pl.addr, B: nv, Ty: pl.ty, Slot: pl.slot, Pos: x.Position()})
		return nv

	case *cminor.Cond:
		slot := lw.emitAlloca(mir.Instr{Op: mir.Alloca, Ty: x.Ty, Slot: mir.Slot{Kind: mir.SlotNone}, Pos: x.Position()})
		thenB := lw.newBlock("cond.then")
		elseB := lw.newBlock("cond.else")
		done := lw.newBlock("cond.done")
		c := lw.condition(x.C)
		lw.branch(c, thenB, elseB)
		lw.setBlock(thenB)
		av := lw.expr(x.A)
		lw.emit(mir.Instr{Op: mir.Store, A: slot, B: av, Ty: x.Ty})
		lw.jump(done)
		lw.setBlock(elseB)
		bv := lw.expr(x.B)
		lw.emit(mir.Instr{Op: mir.Store, A: slot, B: bv, Ty: x.Ty})
		lw.jump(done)
		lw.setBlock(done)
		return lw.emitDst(mir.Instr{Op: mir.Load, A: slot, Ty: x.Ty, Slot: mir.Slot{Kind: mir.SlotNone}})

	case *cminor.Call:
		return lw.call(x)

	case *cminor.Member, *cminor.Index:
		pl := lw.address(e)
		return lw.emitDst(mir.Instr{Op: mir.Load, A: pl.addr, Ty: pl.ty, Slot: pl.slot, Pos: e.Position()})

	case *cminor.Cast:
		from := x.X.Type()
		var v mir.Reg
		if from != nil && from.Kind == ctypes.Array {
			// Array decay: the value is the array's address.
			v = lw.address(x.X).addr
			from = ctypes.PointerTo(from.Elem)
		} else {
			v = lw.expr(x.X)
		}
		return lw.emitDst(mir.Instr{Op: mir.CastOp, A: v, FromTy: from, Ty: x.Ty, Pos: x.Position()})
	}
	lw.fail(e.Position(), "unknown expression %T", e)
	return lw.emitDst(mir.Instr{Op: mir.Const, Imm: 0, Ty: ctypes.IntType})
}

func isFloat(t *ctypes.Type) bool {
	return t != nil && (t.Kind == ctypes.Float || t.Kind == ctypes.Double)
}

var (
	binSubs = map[cminor.BinOp]mir.BinSub{
		cminor.Add: mir.Add, cminor.Sub: mir.Sub, cminor.Mul: mir.Mul,
		cminor.Div: mir.Div, cminor.Rem: mir.Rem, cminor.And: mir.And,
		cminor.Or: mir.Or, cminor.Xor: mir.Xor, cminor.Shl: mir.Shl, cminor.Shr: mir.Shr,
	}
	cmpSubs = map[cminor.BinOp]mir.CmpSub{
		cminor.Eq: mir.Eq, cminor.Ne: mir.Ne, cminor.Lt: mir.Lt,
		cminor.Le: mir.Le, cminor.Gt: mir.Gt, cminor.Ge: mir.Ge,
	}
	compoundSubs = map[cminor.TokKind]mir.BinSub{
		cminor.PLUSEQ: mir.Add, cminor.MINUSEQ: mir.Sub,
		cminor.STAREQ: mir.Mul, cminor.SLASHEQ: mir.Div, cminor.PCTEQ: mir.Rem,
		cminor.AMPEQ: mir.And, cminor.PIPEEQ: mir.Or, cminor.CARETEQ: mir.Xor,
		cminor.SHLEQ: mir.Shl, cminor.SHREQ: mir.Shr,
	}
)

func (lw *lowerer) binary(x *cminor.Binary) mir.Reg {
	switch x.Op {
	case cminor.LogAnd, cminor.LogOr:
		return lw.shortCircuit(x)
	}
	a := lw.expr(x.X)
	b := lw.expr(x.Y)
	xt, yt := x.X.Type(), x.Y.Type()

	// Pointer arithmetic scaling.
	if x.Op == cminor.Add || x.Op == cminor.Sub {
		if xt.Kind == ctypes.Pointer && yt.IsInteger() {
			b = lw.scale(b, xt.Elem.Size())
		} else if yt.Kind == ctypes.Pointer && xt.IsInteger() && x.Op == cminor.Add {
			a = lw.scale(a, yt.Elem.Size())
		}
	}

	fl := isFloat(xt) || isFloat(yt)
	switch x.Op {
	case cminor.Add, cminor.Sub, cminor.Mul, cminor.Div, cminor.Rem,
		cminor.And, cminor.Or, cminor.Xor, cminor.Shl, cminor.Shr:
		sub := binSubs[x.Op]
		if fl {
			switch x.Op {
			case cminor.Add:
				sub = mir.FAdd
			case cminor.Sub:
				sub = mir.FSub
			case cminor.Mul:
				sub = mir.FMul
			case cminor.Div:
				sub = mir.FDiv
			}
		}
		r := lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: sub, A: a, B: b, Ty: x.Ty, Pos: x.Position()})
		// Pointer difference divides by the element size.
		if x.Op == cminor.Sub && xt.Kind == ctypes.Pointer && yt.Kind == ctypes.Pointer {
			sz := lw.emitDst(mir.Instr{Op: mir.Const, Imm: int64(xt.Elem.Size()), Ty: ctypes.LongType})
			r = lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.Div, A: r, B: sz, Ty: ctypes.LongType})
		}
		return r
	case cminor.Eq, cminor.Ne, cminor.Lt, cminor.Le, cminor.Gt, cminor.Ge:
		sub := cmpSubs[x.Op]
		// FromTy records the operand type so the VM picks float compare.
		return lw.emitDst(mir.Instr{Op: mir.CmpInstr, CmpSub: sub, A: a, B: b, Ty: ctypes.IntType, FromTy: xt, Pos: x.Position()})
	}
	lw.fail(x.Position(), "unknown binary op %d", x.Op)
	return a
}

func (lw *lowerer) scale(r mir.Reg, size int) mir.Reg {
	if size == 1 {
		return r
	}
	s := lw.emitDst(mir.Instr{Op: mir.Const, Imm: int64(size), Ty: ctypes.LongType})
	return lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: mir.Mul, A: r, B: s, Ty: ctypes.LongType})
}

// shortCircuit lowers && and || with control flow, storing the result in a
// dedicated stack slot (the -O0 idiom that avoids SSA phis).
func (lw *lowerer) shortCircuit(x *cminor.Binary) mir.Reg {
	slot := lw.emitAlloca(mir.Instr{Op: mir.Alloca, Ty: ctypes.IntType, Slot: mir.Slot{Kind: mir.SlotNone}, Pos: x.Position()})
	evalY := lw.newBlock("sc.rhs")
	short := lw.newBlock("sc.short")
	done := lw.newBlock("sc.done")

	condX := lw.condition(x.X)
	if x.Op == cminor.LogAnd {
		lw.branch(condX, evalY, short)
	} else {
		lw.branch(condX, short, evalY)
	}

	lw.setBlock(evalY)
	condY := lw.condition(x.Y)
	lw.emit(mir.Instr{Op: mir.Store, A: slot, B: condY, Ty: ctypes.IntType})
	lw.jump(done)

	lw.setBlock(short)
	imm := int64(0)
	if x.Op == cminor.LogOr {
		imm = 1
	}
	c := lw.emitDst(mir.Instr{Op: mir.Const, Imm: imm, Ty: ctypes.IntType})
	lw.emit(mir.Instr{Op: mir.Store, A: slot, B: c, Ty: ctypes.IntType})
	lw.jump(done)

	lw.setBlock(done)
	return lw.emitDst(mir.Instr{Op: mir.Load, A: slot, Ty: ctypes.IntType, Slot: mir.Slot{Kind: mir.SlotNone}})
}

func (lw *lowerer) assign(x *cminor.Assign) mir.Reg {
	v := lw.expr(x.RHS)
	pl := lw.address(x.LHS)
	if x.Op != cminor.ASSIGN {
		old := lw.emitDst(mir.Instr{Op: mir.Load, A: pl.addr, Ty: pl.ty, Slot: pl.slot, Pos: x.Position()})
		if pl.ty.Kind == ctypes.Pointer {
			v = lw.scale(v, pl.ty.Elem.Size())
		}
		sub, ok := compoundSubs[x.Op]
		if !ok {
			lw.fail(x.Position(), "unknown compound assignment %v", x.Op)
		}
		if isFloat(pl.ty) {
			switch sub {
			case mir.Add:
				sub = mir.FAdd
			case mir.Sub:
				sub = mir.FSub
			case mir.Mul:
				sub = mir.FMul
			case mir.Div:
				sub = mir.FDiv
			}
		}
		v = lw.emitDst(mir.Instr{Op: mir.BinInstr, BinSub: sub, A: old, B: v, Ty: pl.ty, Pos: x.Position()})
	}
	lw.emit(mir.Instr{Op: mir.Store, A: pl.addr, B: v, Ty: pl.ty, Slot: pl.slot, Pos: x.Position()})
	return v
}

func (lw *lowerer) call(x *cminor.Call) mir.Reg {
	args := make([]mir.Reg, len(x.Args))
	for i, a := range x.Args {
		args[i] = lw.expr(a)
	}
	in := mir.Instr{Op: mir.CallOp, Args: args, Ty: x.Ty, Pos: x.Position(), A: mir.NoReg, B: mir.NoReg}
	if id, ok := x.Fun.(*cminor.Ident); ok && id.Fun != nil {
		in.Callee = id.Fun.Name
	} else {
		in.A = lw.expr(x.Fun)
	}
	if x.Ty.Kind == ctypes.Void {
		in.Dst = mir.NoReg
		lw.emit(in)
		return mir.NoReg
	}
	return lw.emitDst(in)
}
