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

// Image is the immutable execution image of one (post-optimization)
// program: its compiled code, function entry tokens and static data
// layout. Everything in it is read-only after construction, so one
// Image is safely shared by every Machine executing the same program:
// engine workers, Program.Run callers, and eval sweeps stop re-building
// it per run. Pass it via Options.Image; a Machine built without one
// builds a private image.
type Image struct {
	prog *mir.Program

	// code holds every function's executable records back to back (one
	// allocation per image); funcs indexes prog.Funcs by position, each
	// entry viewing its run of one shared block-start arena; args holds
	// the argument registers of every call.
	code  []xinstr
	funcs []funcCode
	args  []uint32

	globalAddr []uint64
	stringAddr []uint64
	gseg       int // globals segment size, see dataLayout
	sseg       int // strings segment size

	// sites is the number of monomorphic access-cache slots, one per
	// load and store; each Machine carries a sites-long table of
	// last-resolved memory segments.
	sites uint32
}

// NewImage compiles prog into a shareable execution image. prog must
// keep every function's NumRegs within mir.MaxRegs, as Verify requires;
// NewImage panics otherwise.
func NewImage(prog *mir.Program) *Image {
	predecodeCount.Add(1)
	img := &Image{prog: prog, funcs: make([]funcCode, len(prog.Funcs))}
	img.globalAddr, img.stringAddr, img.gseg, img.sseg = dataLayout(prog)

	// Pass 1: size the arenas, check register counts and index
	// functions by name (the last of a name wins).
	index := make(map[string]int32, len(prog.Funcs))
	nCode, nBlocks := 0, 0
	for i, f := range prog.Funcs {
		index[f.Name] = int32(i)
		if f.Extern {
			continue
		}
		if f.NumRegs > mir.MaxRegs {
			panic(fmt.Sprintf("vm: %s needs %d registers, over mir.MaxRegs", f.Name, f.NumRegs))
		}
		nCode += codeLen(f)
		nBlocks += len(f.Blocks)
	}
	img.code = make([]xinstr, nCode)
	blockPC := make([]int32, nBlocks)

	// Pass 2: compile each function into its run of the code arena.
	base := 0
	for i, f := range prog.Funcs {
		fc := &img.funcs[i]
		fc.fn, fc.extern = f, f.Extern
		if f.Extern {
			continue
		}
		fc.blocks = blockPC[:len(f.Blocks):len(f.Blocks)]
		blockPC = blockPC[len(f.Blocks):]
		fc.entry, fc.nregs = int32(base), int32(f.NumRegs)
		base += img.compileFunc(f, img.code[base:], fc.entry, fc.blocks, index)
	}
	return img
}

// funcToken is the entry token of prog.Funcs[i]: what a code pointer to
// it looks like in memory.
func funcToken(i int) uint64 { return FuncBase + uint64(i)*FuncStride }

// funcOf returns f's compiled code, or nil when f is not in the image.
func (img *Image) funcOf(f *mir.Func) *funcCode {
	for i := range img.funcs {
		if img.funcs[i].fn == f {
			return &img.funcs[i]
		}
	}
	return nil
}

// dataPad is the slack a data segment carries past its last object.
const dataPad = 16

// dataLayout is the static data layout of every image: globals in
// declaration order, each at its natural alignment, then string constants
// packed back to back with their NUL terminators. It returns each
// object's address and the globals and strings segment sizes, dataPad
// included.
func dataLayout(prog *mir.Program) (globalAddr, stringAddr []uint64, gseg, sseg int) {
	globalAddr = make([]uint64, 0, len(prog.Globals))
	stringAddr = make([]uint64, 0, len(prog.Strings))
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
// resolve into the next segment. It lays the globals out as dataLayout
// does and fails as soon as the running size passes the segment, before
// an addition can wrap; a negative size is an array size that overflowed
// int.
func CheckDataLayout(prog *mir.Program) error {
	gseg := 0
	for _, g := range prog.Globals {
		a, n := g.Type.Align(), g.Type.Size()
		if gseg = (gseg + a - 1) / a * a; n < 0 || n > StringsBase-GlobalsBase-dataPad-gseg {
			return fmt.Errorf("global %s overflows the %d-byte globals segment", g.Name, StringsBase-GlobalsBase)
		}
		gseg += n
	}
	if _, _, _, sseg := dataLayout(prog); sseg > HeapBase-StringsBase {
		return fmt.Errorf("string constants need %d bytes, over their %d-byte segment", sseg, HeapBase-StringsBase)
	}
	return nil
}

// Prog returns the program the image was built from.
func (img *Image) Prog() *mir.Program { return img.prog }
