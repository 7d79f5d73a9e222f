package vm

import (
	"fmt"
	"sync/atomic"

	"rsti/internal/mir"
)

// predecodeCount counts Image constructions process-wide. Tests assert
// image sharing with it: N concurrent runs of one build must add exactly
// one predecode, mirroring the compile-path coalescing counters.
var predecodeCount atomic.Int64

// PredecodeCount returns the number of program images built so far.
func PredecodeCount() int64 { return predecodeCount.Load() }

// funcDec is one function's view into the image's flat predecode arena:
// ops is the function's contiguous decInstr run, off its per-block offset
// index (block i occupies ops[off[i]:off[i+1]], with len(Blocks)+1
// entries). Both alias image-wide arenas — a funcDec is two slice
// headers, nothing is copied per function or per block.
type funcDec struct {
	ops []decInstr
	off []int32
}

// block returns block i's decoded instructions.
func (fd funcDec) block(i int) []decInstr { return fd.ops[fd.off[i]:fd.off[i+1]] }

// Image is the immutable execution image of one (post-optimization)
// program: predecoded instruction metadata — including superinstruction
// fusion marks — function entry tokens, and the static data layout.
// Everything in it is read-only after construction, so one Image is
// safely shared by every Machine executing the same program: engine
// workers, Program.Run callers, and eval sweeps stop re-predecoding per
// run. Pass it via Options.Image; a Machine built without one predecodes
// privately.
type Image struct {
	prog *mir.Program

	// arena holds every non-extern function's predecoded instruction
	// metadata in one contiguous allocation, blockOff the matching flat
	// per-block offset index: one allocation each per image instead of
	// one slice per block, so the interpreter walks a single
	// cache-friendly run of 16-byte records. dec maps a function to its
	// view of the two arenas.
	arena    []decInstr
	blockOff []int32
	dec      map[*mir.Func]funcDec

	funcTok    map[string]uint64
	tokFunc    map[uint64]*mir.Func
	globalAddr []uint64
	stringAddr []uint64
	gseg       int // globals segment size, see dataLayout
	sseg       int // strings segment size

	// maxRegs is the widest register file any function of the program
	// needs — the frame pool's sizing watermark: register slices are
	// allocated at this capacity once, so re-preparing a pooled frame for
	// any callee never reallocates.
	maxRegs int

	// sites is the number of monomorphic access-cache slots predecode
	// assigned (one per fused aut+…+access group); each Machine carries a
	// sites-long table of last-resolved memory segments.
	sites uint32

	fused FuseCounts // static superinstruction groups marked by predecode
}

// NewImage predecodes prog into a shareable execution image.
func NewImage(prog *mir.Program) *Image {
	predecodeCount.Add(1)
	img := &Image{
		prog:    prog,
		funcTok: make(map[string]uint64, len(prog.Funcs)),
		tokFunc: make(map[uint64]*mir.Func, len(prog.Funcs)),
		dec:     make(map[*mir.Func]funcDec, len(prog.Funcs)),
	}

	img.globalAddr, img.stringAddr, img.gseg, img.sseg = dataLayout(prog)

	// Pass 1: size the flat arenas and the register watermark.
	nInstr, nOff := 0, 0
	for _, f := range prog.Funcs {
		if f.NumRegs > img.maxRegs {
			img.maxRegs = f.NumRegs
		}
		if f.Extern {
			continue
		}
		for _, blk := range f.Blocks {
			nInstr += len(blk.Instrs)
		}
		nOff += len(f.Blocks) + 1
	}
	img.arena = make([]decInstr, nInstr)
	img.blockOff = make([]int32, nOff)

	// Pass 2: predecode each function into its contiguous slice.
	iBase, oBase := 0, 0
	for i, f := range prog.Funcs {
		tok := uint64(FuncBase) + uint64(i)*FuncStride
		img.funcTok[f.Name] = tok
		img.tokFunc[tok] = f
		if f.Extern {
			continue
		}
		n := 0
		for _, blk := range f.Blocks {
			n += len(blk.Instrs)
		}
		fd := funcDec{
			ops: img.arena[iBase : iBase+n : iBase+n],
			off: img.blockOff[oBase : oBase+len(f.Blocks)+1 : oBase+len(f.Blocks)+1],
		}
		fc := predecodeInto(f, fd.ops, fd.off, &img.sites)
		img.dec[f] = fd
		img.fused.add(fc)
		iBase += n
		oBase += len(f.Blocks) + 1
	}
	return img
}

// dataPad is the slack a data segment carries past its last object.
const dataPad = 16

// dataLayout is the static data layout of every image: globals in
// declaration order, each at its natural alignment, then string constants
// packed back to back with their NUL terminators. It returns each
// object's address and the globals and strings segment sizes, dataPad
// included.
func dataLayout(prog *mir.Program) (globalAddr, stringAddr []uint64, gseg, sseg int) {
	for _, g := range prog.Globals {
		a := g.Type.Align()
		gseg = (gseg + a - 1) / a * a
		globalAddr = append(globalAddr, GlobalsBase+uint64(gseg))
		gseg += g.Type.Size()
	}
	for _, s := range prog.Strings {
		stringAddr = append(stringAddr, StringsBase+uint64(sseg))
		sseg += len(s) + 1
	}
	return globalAddr, stringAddr, gseg + dataPad, sseg + dataPad
}

// CheckDataLayout reports whether prog's static data fits its segments.
// The chunk table maps each 256 MiB chunk to one segment, so the globals
// segment must end by StringsBase and the strings segment by HeapBase; a
// program that overflows either would have its in-bounds accesses
// resolve into the next segment. A negative size is an array size that
// overflowed int.
func CheckDataLayout(prog *mir.Program) error {
	_, _, gseg, sseg := dataLayout(prog)
	if gseg < 0 || gseg > StringsBase-GlobalsBase {
		return fmt.Errorf("globals overflow their %d-byte segment", StringsBase-GlobalsBase)
	}
	if sseg > HeapBase-StringsBase {
		return fmt.Errorf("string constants need %d bytes, over their %d-byte segment", sseg, HeapBase-StringsBase)
	}
	return nil
}

// Prog returns the program the image was built from.
func (img *Image) Prog() *mir.Program { return img.prog }

// MaxRegs returns the register-file watermark frame pools size from.
func (img *Image) MaxRegs() int { return img.maxRegs }

// FusedPairs reports the static number of adjacent aut+load and pac+store
// pairs predecode marked for fused dispatch (the original two-instruction
// superinstructions; see FusedGroups for the widened set).
func (img *Image) FusedPairs() (authLoads, signStores int) {
	return img.fused.AuthLoads, img.fused.SignStores
}

// FusedGroups reports all static superinstruction groups predecode marked,
// by kind.
func (img *Image) FusedGroups() FuseCounts { return img.fused }
