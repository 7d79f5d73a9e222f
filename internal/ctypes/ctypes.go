// Package ctypes models the C type system that STI's "programmer's intent"
// is expressed in: basic types, pointers, arrays, functions, and composite
// (struct) types, together with const qualification — the paper's
// "permission" — and the structural facts (pointer depth, element types,
// field layout) that the analysis and the VM both need.
//
// Types are plain immutable values once built. A Table interns them and
// assigns the stable small integer IDs the instrumentation uses in PAC
// modifiers and in the pointer-to-pointer Full Equivalent metadata.
package ctypes

import (
	"fmt"
	"strings"
)

// Kind discriminates the type constructors.
type Kind uint8

const (
	Void Kind = iota
	Bool
	Char
	Short
	Int
	Long
	Float
	Double
	Pointer
	Array
	Struct
	Func
)

var kindNames = map[Kind]string{
	Void: "void", Bool: "_Bool", Char: "char", Short: "short", Int: "int",
	Long: "long", Float: "float", Double: "double",
}

// Field is one member of a composite type.
type Field struct {
	Name   string
	Type   *Type
	Offset int // byte offset within the struct
}

// Type is a C type. Exactly the fields relevant to its Kind are set.
// Types are immutable after construction; the shared leaves created by the
// constructors below may be referenced from many places.
type Type struct {
	Kind  Kind
	Const bool // the paper's "permission": const = read-only

	Elem *Type // Pointer, Array
	Len  int   // Array

	Name       string // Struct tag (nominal identity)
	Fields     []Field
	Incomplete bool // forward-declared struct whose fields are not known yet

	Ret      *Type   // Func
	Params   []*Type // Func
	Variadic bool    // Func
}

// Basic type singletons (unqualified).
var (
	VoidType   = &Type{Kind: Void}
	BoolType   = &Type{Kind: Bool}
	CharType   = &Type{Kind: Char}
	ShortType  = &Type{Kind: Short}
	IntType    = &Type{Kind: Int}
	LongType   = &Type{Kind: Long}
	FloatType  = &Type{Kind: Float}
	DoubleType = &Type{Kind: Double}
)

// PointerTo returns the type "elem *".
func PointerTo(elem *Type) *Type { return &Type{Kind: Pointer, Elem: elem} }

// ArrayOf returns the type "elem[n]".
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// FuncOf returns the function type ret(params...).
func FuncOf(ret *Type, params []*Type, variadic bool) *Type {
	return &Type{Kind: Func, Ret: ret, Params: params, Variadic: variadic}
}

// Qualified returns t with the const qualifier applied (a shallow copy; t
// itself is never mutated).
func Qualified(t *Type) *Type {
	if t.Const {
		return t
	}
	q := *t
	q.Const = true
	return &q
}

// Unqualified returns t without its top-level const qualifier.
func (t *Type) Unqualified() *Type {
	if !t.Const {
		return t
	}
	u := *t
	u.Const = false
	return &u
}

// Size returns the byte size under the model's LP64 layout (pointers and
// long are 8 bytes, int 4, short 2, char/bool 1, float 4, double 8).
func (t *Type) Size() int {
	switch t.Kind {
	case Void:
		return 1 // as GCC does for arithmetic on void*
	case Bool, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Long, Double, Pointer, Func:
		return 8
	case Array:
		return t.Len * t.Elem.Size()
	case Struct:
		if len(t.Fields) == 0 {
			return 0
		}
		last := t.Fields[len(t.Fields)-1]
		size := last.Offset + last.Type.Size()
		a := t.Align()
		return (size + a - 1) / a * a
	}
	panic(fmt.Sprintf("ctypes: Size of unknown kind %d", t.Kind))
}

// MaxSize bounds the size of every object: the 48-bit virtual address
// space the model executes in.
const MaxSize = 1 << 48

// CheckSize reports why t cannot be laid out, or nil when it can: t (or,
// for a pointer, what it points to) is larger than MaxSize, or a struct
// contains itself by value. Each multiplication and addition is checked
// before it is made, so no size can wrap. A struct behind a pointer is
// not walked: a struct type is checked on its own, where it is defined.
func CheckSize(t *Type) error {
	for t.Kind == Pointer {
		if t = t.Elem; t.Kind == Struct {
			return nil
		}
	}
	_, err := checkedSize(t, nil)
	return err
}

// enclosing links the structs whose layout encloses a type being sized.
type enclosing struct {
	t  *Type
	up *enclosing
}

// checkedSize is Size with those checks, over what t holds by value.
func checkedSize(t *Type, path *enclosing) (int, error) {
	switch t.Kind {
	case Array:
		n, err := checkedSize(t.Elem, path)
		if err == nil && (t.Len < 0 || n > 0 && t.Len > MaxSize/n) {
			err = tooBig(t)
		}
		return t.Len * n, err
	case Struct:
		for p := path; p != nil; p = p.up {
			if p.t == t {
				return 0, fmt.Errorf("struct %s contains itself by value", t.Name)
			}
		}
		size, in := 0, enclosing{t, path}
		for _, f := range t.Fields {
			n, err := checkedSize(f.Type, &in)
			if err != nil {
				return 0, err
			}
			a := f.Type.Align()
			if size = (size + a - 1) / a * a; n > MaxSize-size {
				return 0, tooBig(t)
			}
			size += n
		}
		a := t.Align() // divides MaxSize, so rounding up stays within it
		return (size + a - 1) / a * a, nil
	}
	return t.Size(), nil
}

func tooBig(t *Type) error { return fmt.Errorf("type %s is larger than the 48-bit address space", t) }

// Align returns the natural alignment.
func (t *Type) Align() int {
	switch t.Kind {
	case Array:
		return t.Elem.Align()
	case Struct:
		a := 1
		for _, f := range t.Fields {
			if fa := f.Type.Align(); fa > a {
				a = fa
			}
		}
		return a
	default:
		return t.Size()
	}
}

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == Pointer }

// IsFuncPointer reports whether t is a pointer to a function.
func (t *Type) IsFuncPointer() bool { return t.Kind == Pointer && t.Elem.Kind == Func }

// IsInteger reports whether t is an integer type.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case Bool, Char, Short, Int, Long:
		return true
	}
	return false
}

// IsScalar reports whether t fits in a single VM register slot.
func (t *Type) IsScalar() bool {
	return t.IsInteger() || t.Kind == Pointer || t.Kind == Float || t.Kind == Double
}

// PointerDepth returns how many pointer layers wrap the base type:
// 0 for int, 1 for int*, 2 for int**, ...
func (t *Type) PointerDepth() int {
	d := 0
	for t.Kind == Pointer {
		d++
		t = t.Elem
	}
	return d
}

// BaseType strips all pointer layers: BaseType of int** is int.
func (t *Type) BaseType() *Type {
	for t.Kind == Pointer {
		t = t.Elem
	}
	return t
}

// FieldByName returns the field and true if the struct has it.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Equal reports type identity: structural for derived types, nominal for
// structs (as in C, two struct types are the same only if they are the
// same declaration).
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind || t.Const != o.Const {
		return false
	}
	switch t.Kind {
	case Pointer:
		return t.Elem.Equal(o.Elem)
	case Array:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	case Struct:
		return t.Name == o.Name
	case Func:
		if !t.Ret.Equal(o.Ret) || len(t.Params) != len(o.Params) || t.Variadic != o.Variadic {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(o.Params[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Key returns a canonical string that is equal exactly for Equal types;
// the Table uses it for interning.
func (t *Type) Key() string {
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t *Type) writeKey(b *strings.Builder) {
	// A const-qualified pointer renders as "T* const" (C's placement),
	// keeping it distinct from "const T*" (pointer to const T) — the two
	// differ in Equal and must differ in Key.
	if t.Const && t.Kind != Pointer {
		b.WriteString("const ")
	}
	switch t.Kind {
	case Pointer:
		t.Elem.writeKey(b)
		b.WriteByte('*')
		if t.Const {
			b.WriteString(" const")
		}
	case Array:
		t.Elem.writeKey(b)
		fmt.Fprintf(b, "[%d]", t.Len)
	case Struct:
		b.WriteString("struct ")
		b.WriteString(t.Name)
	case Func:
		t.Ret.writeKey(b)
		b.WriteByte('(')
		for i, p := range t.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			p.writeKey(b)
		}
		if t.Variadic {
			b.WriteString(",...")
		}
		b.WriteByte(')')
	default:
		b.WriteString(kindNames[t.Kind])
	}
}

// String renders the type in C-like syntax.
func (t *Type) String() string { return t.Key() }

// Table interns types and assigns stable integer IDs, and owns the struct
// namespace (nominal struct identity requires a single registry).
type Table struct {
	structs map[string]*Type
	byKey   map[string]*Type
	ids     map[string]int
	ordered []*Type
}

// NewTable returns an empty type table.
func NewTable() *Table {
	return &Table{
		structs: make(map[string]*Type),
		byKey:   make(map[string]*Type),
		ids:     make(map[string]int),
	}
}

// DeclareStruct registers (or returns the existing) struct with the given
// tag. The returned type starts incomplete; call CompleteStruct to attach
// fields. This two-step protocol supports self-referential types such as
// struct node { struct node *next; }.
func (tb *Table) DeclareStruct(name string) *Type {
	if s, ok := tb.structs[name]; ok {
		return s
	}
	s := &Type{Kind: Struct, Name: name, Incomplete: true}
	tb.structs[name] = s
	tb.Intern(s)
	return s
}

// CompleteStruct lays out the fields of a declared struct with natural
// alignment and marks it complete. It returns an error if the struct was
// already completed with different fields, or if a field holds by value
// (directly or as array elements) a struct that is still incomplete: its
// size is not known yet, and C rejects it. A struct that contains itself
// by value is such a field, since it is incomplete until its own fields
// are laid out. A pointer to an incomplete struct is a complete type.
func (tb *Table) CompleteStruct(name string, fields []Field) (*Type, error) {
	s, ok := tb.structs[name]
	if !ok {
		s = tb.DeclareStruct(name)
	}
	if !s.Incomplete {
		return nil, fmt.Errorf("ctypes: struct %s redefined", name)
	}
	for _, f := range fields {
		t := f.Type
		for t.Kind == Array {
			t = t.Elem
		}
		if t.Kind == Struct && t.Incomplete {
			return nil, fmt.Errorf("ctypes: field %s of struct %s has incomplete type struct %s", f.Name, name, t.Name)
		}
	}
	off := 0
	laid := make([]Field, len(fields))
	for i, f := range fields {
		a := f.Type.Align()
		off = (off + a - 1) / a * a
		laid[i] = Field{Name: f.Name, Type: f.Type, Offset: off}
		off += f.Type.Size()
	}
	s.Fields = laid
	s.Incomplete = false
	return s, nil
}

// Struct returns the registered struct type, if any.
func (tb *Table) Struct(name string) (*Type, bool) {
	s, ok := tb.structs[name]
	return s, ok
}

// RenameStruct gives a registered struct a new tag, keeping the old name
// as an alias. The parser uses it to adopt a typedef's name for an
// anonymous struct ("typedef struct { ... } ctx;"), so diagnostics, debug
// metadata and analyses see "ctx" rather than a placeholder.
func (tb *Table) RenameStruct(old, new string) {
	s, ok := tb.structs[old]
	if !ok || new == "" || old == new {
		return
	}
	if _, taken := tb.structs[new]; taken {
		return
	}
	s.Name = new
	tb.structs[new] = s
}

// Intern canonicalizes t and assigns it an ID if it is new. Two Equal
// types intern to the same representative.
func (tb *Table) Intern(t *Type) *Type {
	k := t.Key()
	if c, ok := tb.byKey[k]; ok {
		return c
	}
	tb.byKey[k] = t
	tb.ids[k] = len(tb.ordered)
	tb.ordered = append(tb.ordered, t)
	return t
}

// ID returns the stable small integer ID for t, interning it if needed.
func (tb *Table) ID(t *Type) int {
	k := t.Key()
	if id, ok := tb.ids[k]; ok {
		return id
	}
	tb.Intern(t)
	return tb.ids[k]
}

// ByID returns the type with the given ID.
func (tb *Table) ByID(id int) *Type { return tb.ordered[id] }

// StructsByName returns a copy of the struct registry (tag → type), for
// serializers that must persist nominal identity. The Type pointers are
// shared with the table.
func (tb *Table) StructsByName() map[string]*Type {
	out := make(map[string]*Type, len(tb.structs))
	for k, v := range tb.structs {
		out[k] = v
	}
	return out
}

// RestoreTable rebuilds a Table from previously captured state: the
// struct registry and the interned types in their original ID order. The
// IDs a restored table assigns are exactly the captured ones — essential
// for deserialized programs, whose PAC modifiers embed type IDs — and
// types interned after restoration continue the sequence deterministically.
func RestoreTable(structs map[string]*Type, ordered []*Type) *Table {
	tb := NewTable()
	for k, v := range structs {
		tb.structs[k] = v
	}
	for _, t := range ordered {
		tb.Intern(t)
	}
	return tb
}

// Len returns the number of interned types.
func (tb *Table) Len() int { return len(tb.ordered) }

// All returns the interned types in ID order. The slice is shared; do not
// modify it.
func (tb *Table) All() []*Type { return tb.ordered }
