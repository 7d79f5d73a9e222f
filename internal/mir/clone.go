package mir

// Clone deep-copies the program's mutable structure (functions, blocks,
// instructions) so an instrumentation pass can rewrite one copy per
// mechanism from a single lowering. Immutable metadata (VarInfo, Globals,
// types, the string pool) is shared.
//
// Each function's instructions are copied into one arena sized from the
// source (two allocations per function — instructions and call-argument
// registers — instead of one per block plus one per call). Block and Args
// slices are capacity-capped into their arenas, so appending to one can
// never bleed into a neighbour: a clone shares no mutable state with its
// source or with sibling clones, which is what lets per-mechanism builds
// instrument clones of the same lowering concurrently.
func (p *Program) Clone() *Program {
	q := &Program{
		ByName:  make(map[string]*Func, len(p.ByName)),
		Globals: p.Globals,
		Vars:    p.Vars,
		Strings: append([]string(nil), p.Strings...),
		Types:   p.Types,
	}
	q.Funcs = make([]*Func, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		nf := &Func{
			Name:     f.Name,
			Ret:      f.Ret,
			Params:   f.Params,
			ParamVar: f.ParamVar,
			Variadic: f.Variadic,
			Extern:   f.Extern,
			NumRegs:  f.NumRegs,
		}
		var nInstrs, nArgs int
		for _, b := range f.Blocks {
			nInstrs += len(b.Instrs)
			for i := range b.Instrs {
				nArgs += len(b.Instrs[i].Args)
			}
		}
		instrArena := make([]Instr, nInstrs)
		argArena := make([]Reg, nArgs)
		iOff, aOff := 0, 0
		nf.Blocks = make([]*Block, 0, len(f.Blocks))
		for _, b := range f.Blocks {
			instrs := instrArena[iOff : iOff+len(b.Instrs) : iOff+len(b.Instrs)]
			iOff += len(b.Instrs)
			copy(instrs, b.Instrs)
			for i := range instrs {
				if n := len(instrs[i].Args); n > 0 {
					args := argArena[aOff : aOff+n : aOff+n]
					aOff += n
					copy(args, instrs[i].Args)
					instrs[i].Args = args
				}
			}
			nf.Blocks = append(nf.Blocks, &Block{Index: b.Index, Name: b.Name, Instrs: instrs})
		}
		q.Funcs = append(q.Funcs, nf)
		q.ByName[nf.Name] = nf
	}
	return q
}

// CloneShell copies the program's function and block skeleton but no
// instructions: Funcs and Blocks are fresh, every Block.Instrs is nil.
// An instrumentation pass that re-emits every instruction anyway (package
// rsti) starts from a shell and never pays for copying instruction arrays
// it would immediately discard. Func order, block order/indices and
// register counts match the source, so source and shell can be walked in
// lockstep. Globals, Vars, Strings and Types are the source's own: no
// pass over a shell adds to or rewrites them.
func (p *Program) CloneShell() *Program {
	q := &Program{
		ByName:  make(map[string]*Func, len(p.ByName)),
		Globals: p.Globals,
		Vars:    p.Vars,
		Strings: p.Strings,
		Types:   p.Types,
	}
	q.Funcs = make([]*Func, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		nf := &Func{
			Name:     f.Name,
			Ret:      f.Ret,
			Params:   f.Params,
			ParamVar: f.ParamVar,
			Variadic: f.Variadic,
			Extern:   f.Extern,
			NumRegs:  f.NumRegs,
		}
		nf.Blocks = make([]*Block, 0, len(f.Blocks))
		for _, b := range f.Blocks {
			nf.Blocks = append(nf.Blocks, &Block{Index: b.Index, Name: b.Name})
		}
		q.Funcs = append(q.Funcs, nf)
		q.ByName[nf.Name] = nf
	}
	return q
}
