package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// fidelity compares a program with its decoded copy field by field,
// through reflection, so a field added to the IR is compared without
// touching this test. Nil and empty slices compare equal. Type pointers
// must correspond one-to-one: a type shared in the original is shared in
// the copy, and distinct types stay distinct.
type fidelity struct {
	t         *testing.T
	fwd, back map[*ctypes.Type]*ctypes.Type
}

var typePtr = reflect.TypeOf((*ctypes.Type)(nil))

func (c *fidelity) typ(path string, a, b *ctypes.Type) {
	if (a == nil) != (b == nil) {
		c.t.Fatalf("%s: nil %v, decoded nil %v", path, a == nil, b == nil)
	}
	if a == nil {
		return
	}
	if m, ok := c.fwd[a]; ok {
		if m != b {
			c.t.Fatalf("%s: a shared type %s decoded as two types", path, a)
		}
		return
	}
	if _, ok := c.back[b]; ok {
		c.t.Fatalf("%s: distinct types decoded as one %s", path, b)
	}
	c.fwd[a], c.back[b] = b, a
	c.value(path+"("+a.Key()+")", reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

func (c *fidelity) value(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.Type() == typePtr {
			c.typ(path, a.Interface().(*ctypes.Type), b.Interface().(*ctypes.Type))
			return
		}
		if a.IsNil() != b.IsNil() {
			c.t.Fatalf("%s: nil %v, decoded nil %v", path, a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			c.value(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			c.value(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			c.t.Fatalf("%s: length %d, decoded %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			c.value(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint8, reflect.Uint16, reflect.Uint64, reflect.String:
		if !a.Equal(b) {
			c.t.Fatalf("%s: %v, decoded %v", path, a, b)
		}
	default:
		c.t.Fatalf("%s: no comparison for kind %v", path, a.Kind())
	}
}

// checkFidelity compares every field of orig with dec. Program.ByName
// and Program.Types are compared by what they index: ByName must name
// the decoded counterpart of each function, and the interned table and
// struct registry must list corresponding types in the original order.
func checkFidelity(t *testing.T, orig, dec *mir.Program) {
	c := &fidelity{t: t, fwd: make(map[*ctypes.Type]*ctypes.Type), back: make(map[*ctypes.Type]*ctypes.Type)}
	o, d := reflect.ValueOf(orig).Elem(), reflect.ValueOf(dec).Elem()
	for i := 0; i < o.NumField(); i++ {
		switch name := o.Type().Field(i).Name; name {
		case "ByName", "Types":
		default:
			c.value(name, o.Field(i), d.Field(i))
		}
	}
	if len(orig.ByName) != len(dec.ByName) {
		t.Fatalf("ByName has %d entries, decoded %d", len(orig.ByName), len(dec.ByName))
	}
	for i, f := range orig.Funcs {
		if orig.ByName[f.Name] == f && dec.ByName[f.Name] != dec.Funcs[i] {
			t.Fatalf("ByName[%q] does not name the decoded function", f.Name)
		}
	}
	ot, dt := orig.Types.All(), dec.Types.All()
	if len(ot) != len(dt) {
		t.Fatalf("interned table has %d types, decoded %d", len(ot), len(dt))
	}
	for i := range ot {
		c.typ(fmt.Sprintf("Types.ByID(%d)", i), ot[i], dt[i])
	}
	ostructs, dstructs := orig.Types.StructsByName(), dec.Types.StructsByName()
	if len(ostructs) != len(dstructs) {
		t.Fatalf("struct registry has %d names, decoded %d", len(ostructs), len(dstructs))
	}
	for name, st := range ostructs {
		c.typ("struct registry "+name, st, dstructs[name])
	}
}

// TestCodecFieldFidelity round-trips lowered and instrumented programs
// through the artifact codec and compares every field of every Type,
// VarInfo, Global, Func, Block and Instr — including what the printed
// form omits: positions, field offsets, variable metadata and the PAC
// modifier, key and CE tag of instrumented code.
func TestCodecFieldFidelity(t *testing.T) {
	srcs := map[string]string{"roundtrip": roundtripSrc}
	seeds, err := filepath.Glob(filepath.Join("..", "mir", "testdata", "codec", "*.c"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no codec seed sources (err=%v)", err)
	}
	for _, p := range seeds {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(src)
	}
	srcs["perfbench_shaped"] = workload.Generate(workload.Config{
		Name: "fidelity", Suite: "fidelity",
		Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25, ChainLen: 24,
		Iters: 2, DerefOps: 12, CallOps: 3, CastOps: 6, ArithOps: 2, Seed: 1,
	}).Source
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			comp, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := mir.DecodeProgram(mir.AppendProgram(nil, comp.Prog))
			if err != nil {
				t.Fatal(err)
			}
			checkFidelity(t, comp.Prog, dec)
		})
	}

	// An STL build of the pointer-to-pointer demo carries every
	// instrumentation opcode and field.
	t.Run("stl_build", func(t *testing.T) {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "doubleptr.c"))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		b, err := comp.BuildMode(sti.STL, false)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[mir.Op]bool{}
		var mod, key, ce bool
		for _, f := range b.Prog.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					seen[in.Op] = true
					mod, key, ce = mod || in.Mod != 0, key || in.Key != 0, ce || in.CE != 0
				}
			}
		}
		for _, op := range []mir.Op{mir.PacSign, mir.PacAuth, mir.PPAdd, mir.PPSign, mir.PPAuth, mir.PPAddTBI} {
			if !seen[op] {
				t.Errorf("STL build has no %v instruction to round-trip", op)
			}
		}
		if !mod || !key || !ce {
			t.Errorf("STL build lacks a nonzero Mod (%v), Key (%v) or CE (%v)", mod, key, ce)
		}
		dec, err := mir.DecodeProgram(mir.AppendProgram(nil, b.Prog))
		if err != nil {
			t.Fatal(err)
		}
		checkFidelity(t, b.Prog, dec)
	})
}
