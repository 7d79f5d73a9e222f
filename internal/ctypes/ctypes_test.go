package ctypes

import (
	"testing"
	"testing/quick"
)

func TestBasicSizes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int
	}{
		{CharType, 1}, {BoolType, 1}, {ShortType, 2}, {IntType, 4},
		{LongType, 8}, {FloatType, 4}, {DoubleType, 8},
		{PointerTo(IntType), 8}, {PointerTo(VoidType), 8},
		{ArrayOf(IntType, 10), 40},
		{ArrayOf(PointerTo(CharType), 3), 24},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.size {
			t.Errorf("Size(%s) = %d, want %d", c.ty, got, c.size)
		}
	}
}

// TestCheckSize pins the object-size bound: a type fits when its size,
// or for a pointer its pointee's, is at most MaxSize, however its Size
// would wrap; a struct that holds itself by value never fits.
func TestCheckSize(t *testing.T) {
	tb := NewTable()
	node, _ := tb.CompleteStruct("node", []Field{{Name: "next", Type: PointerTo(tb.DeclareStruct("node"))}})
	two, _ := tb.CompleteStruct("two", []Field{{Name: "a", Type: ArrayOf(CharType, MaxSize)}, {Name: "b", Type: CharType}})
	self, _ := tb.CompleteStruct("self", []Field{{Name: "x", Type: tb.DeclareStruct("self")}})
	for _, tc := range []struct {
		ty   *Type
		fits bool
	}{
		{ArrayOf(CharType, MaxSize), true},
		{ArrayOf(LongType, MaxSize/8), true},
		{node, true},
		{ArrayOf(CharType, MaxSize+1), false},
		{ArrayOf(LongType, 1<<61-1), false},               // Size wraps to -8
		{ArrayOf(ArrayOf(LongType, 1<<20), 1<<40), false}, // 2^63 bytes, negative
		{ArrayOf(CharType, -1), false},
		{PointerTo(ArrayOf(LongType, 1<<61-1)), false},
		{two, false}, // each field fits, their sum does not
		{self, false},
	} {
		if err := CheckSize(tc.ty); (err == nil) != tc.fits {
			t.Errorf("CheckSize(%s) = %v, want fits=%v", tc.ty, err, tc.fits)
		}
	}
}

func TestStructLayoutAlignment(t *testing.T) {
	tb := NewTable()
	s, err := tb.CompleteStruct("node", []Field{
		{Name: "key", Type: IntType},
		{Name: "fp", Type: PointerTo(FuncOf(IntType, nil, false))},
		{Name: "next", Type: PointerTo(tb.DeclareStruct("node"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	// int at 0, pointer aligned to 8, pointer at 16, total 24.
	wantOffsets := []int{0, 8, 16}
	for i, f := range s.Fields {
		if f.Offset != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOffsets[i])
		}
	}
	if s.Size() != 24 {
		t.Errorf("struct size = %d, want 24", s.Size())
	}
	if s.Align() != 8 {
		t.Errorf("struct align = %d, want 8", s.Align())
	}
}

func TestStructTailPadding(t *testing.T) {
	tb := NewTable()
	s, err := tb.CompleteStruct("padded", []Field{
		{Name: "p", Type: PointerTo(VoidType)},
		{Name: "c", Type: CharType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 16 {
		t.Errorf("size with tail padding = %d, want 16", s.Size())
	}
}

func TestSelfReferentialStruct(t *testing.T) {
	tb := NewTable()
	fwd := tb.DeclareStruct("list")
	if !fwd.Incomplete {
		t.Fatal("forward declaration not incomplete")
	}
	done, err := tb.CompleteStruct("list", []Field{
		{Name: "next", Type: PointerTo(fwd)},
		{Name: "val", Type: IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != fwd {
		t.Error("CompleteStruct returned a different identity than DeclareStruct")
	}
	if done.Incomplete {
		t.Error("completed struct still incomplete")
	}
	if done.Fields[0].Type.Elem != done {
		t.Error("self-reference does not point back to the same type")
	}
}

func TestStructRedefinitionRejected(t *testing.T) {
	tb := NewTable()
	if _, err := tb.CompleteStruct("s", []Field{{Name: "a", Type: IntType}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CompleteStruct("s", []Field{{Name: "b", Type: IntType}}); err == nil {
		t.Error("redefinition accepted")
	}
}

func TestEqualNominalStructs(t *testing.T) {
	tb := NewTable()
	a, _ := tb.CompleteStruct("a", []Field{{Name: "x", Type: IntType}})
	b, _ := tb.CompleteStruct("b", []Field{{Name: "x", Type: IntType}})
	if a.Equal(b) {
		t.Error("structurally identical but differently named structs compare equal")
	}
	if !PointerTo(a).Equal(PointerTo(a)) {
		t.Error("pointer to same struct not equal")
	}
}

func TestEqualQualifiers(t *testing.T) {
	cp := PointerTo(Qualified(CharType)) // const char *
	p := PointerTo(CharType)             // char *
	if cp.Equal(p) {
		t.Error("const char* compares equal to char*")
	}
	if !cp.Unqualified().Equal(cp) {
		// top-level unqualify does not touch the pointee qualifier
		t.Error("Unqualified changed a type with no top-level qualifier")
	}
	qp := Qualified(p) // char * const
	if qp.Equal(p) {
		t.Error("char* const compares equal to char*")
	}
	if !qp.Unqualified().Equal(p) {
		t.Error("Unqualified(char* const) != char*")
	}
}

func TestQualifiedIdempotent(t *testing.T) {
	q := Qualified(IntType)
	if Qualified(q) != q {
		t.Error("Qualified of a const type allocated a new type")
	}
	if IntType.Const {
		t.Error("Qualified mutated the shared singleton")
	}
}

func TestPointerDepthAndBase(t *testing.T) {
	tb := NewTable()
	n := tb.DeclareStruct("node")
	ppp := PointerTo(PointerTo(PointerTo(n)))
	if d := ppp.PointerDepth(); d != 3 {
		t.Errorf("PointerDepth = %d, want 3", d)
	}
	if ppp.BaseType() != n {
		t.Errorf("BaseType = %s, want struct node", ppp.BaseType())
	}
	if d := IntType.PointerDepth(); d != 0 {
		t.Errorf("PointerDepth(int) = %d, want 0", d)
	}
}

func TestStringRendering(t *testing.T) {
	tb := NewTable()
	node := tb.DeclareStruct("node")
	cases := []struct {
		ty   *Type
		want string
	}{
		{IntType, "int"},
		{PointerTo(VoidType), "void*"},
		{PointerTo(Qualified(CharType)), "const char*"},
		{Qualified(PointerTo(CharType)), "char* const"}, // const pointer, C placement
		{PointerTo(PointerTo(node)), "struct node**"},
		{ArrayOf(IntType, 4), "int[4]"},
		{PointerTo(FuncOf(IntType, []*Type{PointerTo(VoidType)}, false)), "int(void*)*"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestTableInterningAndIDs(t *testing.T) {
	tb := NewTable()
	a := tb.Intern(PointerTo(IntType))
	b := tb.Intern(PointerTo(IntType))
	if a != b {
		t.Error("equal types interned to different representatives")
	}
	idA := tb.ID(PointerTo(IntType))
	idB := tb.ID(PointerTo(CharType))
	if idA == idB {
		t.Error("distinct types share an ID")
	}
	if tb.ByID(idA) != a {
		t.Error("ByID does not return the interned representative")
	}
	if tb.ID(PointerTo(IntType)) != idA {
		t.Error("ID is not stable")
	}
}

func TestIDsAreDense(t *testing.T) {
	tb := NewTable()
	types := []*Type{IntType, PointerTo(IntType), PointerTo(VoidType), CharType}
	for _, ty := range types {
		tb.ID(ty)
	}
	if tb.Len() != len(types) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(types))
	}
	for i := 0; i < tb.Len(); i++ {
		if tb.ID(tb.ByID(i)) != i {
			t.Errorf("ID(ByID(%d)) = %d", i, tb.ID(tb.ByID(i)))
		}
	}
}

func TestFuncTypeEquality(t *testing.T) {
	f1 := FuncOf(IntType, []*Type{PointerTo(CharType)}, false)
	f2 := FuncOf(IntType, []*Type{PointerTo(CharType)}, false)
	f3 := FuncOf(IntType, []*Type{PointerTo(CharType)}, true)
	f4 := FuncOf(VoidType, []*Type{PointerTo(CharType)}, false)
	if !f1.Equal(f2) {
		t.Error("identical function types not equal")
	}
	if f1.Equal(f3) {
		t.Error("variadic mismatch compares equal")
	}
	if f1.Equal(f4) {
		t.Error("return mismatch compares equal")
	}
}

func TestFieldByName(t *testing.T) {
	tb := NewTable()
	s, _ := tb.CompleteStruct("ctx", []Field{
		{Name: "send_file", Type: PointerTo(FuncOf(VoidType, []*Type{IntType}, false))},
	})
	if f, ok := s.FieldByName("send_file"); !ok || f.Name != "send_file" {
		t.Error("FieldByName failed on existing field")
	}
	if _, ok := s.FieldByName("missing"); ok {
		t.Error("FieldByName found a missing field")
	}
}

func TestIsPredicates(t *testing.T) {
	fp := PointerTo(FuncOf(VoidType, nil, false))
	if !fp.IsPointer() || !fp.IsFuncPointer() {
		t.Error("function pointer predicates wrong")
	}
	if PointerTo(IntType).IsFuncPointer() {
		t.Error("int* classified as function pointer")
	}
	if !IntType.IsInteger() || CharType.IsPointer() {
		t.Error("integer predicates wrong")
	}
	if !DoubleType.IsScalar() || ArrayOf(IntType, 2).IsScalar() {
		t.Error("scalar predicates wrong")
	}
}

// Property: Key is injective on a generated family of types — two types
// with equal keys are Equal, and Equal types have equal keys.
func TestKeyCanonicalProperty(t *testing.T) {
	tb := NewTable()
	node := tb.DeclareStruct("n")
	leaves := []*Type{VoidType, CharType, IntType, LongType, node, Qualified(CharType)}
	build := func(seed uint64) *Type {
		t := leaves[seed%uint64(len(leaves))]
		seed /= uint64(len(leaves))
		for i := 0; i < int(seed%4); i++ {
			t = PointerTo(t)
		}
		if seed%7 == 0 {
			t = Qualified(t)
		}
		return t
	}
	f := func(a, b uint64) bool {
		ta, tc := build(a), build(b)
		return (ta.Key() == tc.Key()) == ta.Equal(tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: struct field offsets respect alignment and do not overlap.
func TestStructLayoutProperty(t *testing.T) {
	elems := []*Type{CharType, ShortType, IntType, LongType, PointerTo(VoidType)}
	n := 0
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 12 {
			picks = picks[:12]
		}
		tb := NewTable()
		fields := make([]Field, len(picks))
		for i, p := range picks {
			fields[i] = Field{Name: string(rune('a' + i)), Type: elems[int(p)%len(elems)]}
		}
		n++
		s, err := tb.CompleteStruct("s", fields)
		if err != nil {
			return false
		}
		end := 0
		for _, fl := range s.Fields {
			if fl.Offset%fl.Type.Align() != 0 {
				return false
			}
			if fl.Offset < end {
				return false
			}
			end = fl.Offset + fl.Type.Size()
		}
		return s.Size() >= end && s.Size()%s.Align() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
