package cminor

import (
	"strings"
	"testing"
)

// expectCheckError compiles src and demands a semantic error mentioning
// the fragment.
func expectCheckError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := Frontend(src)
	if err == nil {
		t.Fatalf("no error for %q", fragment)
	}
	if fragment != "" && !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err.Error(), fragment)
	}
}

func TestCheckerRejections(t *testing.T) {
	cases := []struct {
		name, src, fragment string
	}{
		{"undeclared", `int main(void) { return nope; }`, "undeclared"},
		{"call-non-function", `int main(void) { int x = 1; return x(); }`, "not a function"},
		{"deref-non-pointer", `int main(void) { int x = 1; return *x; }`, "dereference"},
		{"member-of-non-struct", `int main(void) { int x = 1; return x.field; }`, "non-struct"},
		{"missing-field", `
			struct s { int a; };
			int main(void) { struct s v; return v.b; }`, "no field"},
		{"arrow-on-value", `
			struct s { int a; };
			int main(void) { struct s v; return v->a; }`, "->"},
		{"wrong-arg-count", `
			int f(int a, int b) { return a + b; }
			int main(void) { return f(1); }`, "number of arguments"},
		{"too-many-args", `
			int f(int a) { return a; }
			int main(void) { return f(1, 2); }`, "number of arguments"},
		{"return-value-from-void", `
			void f(void) { return 3; }
			int main(void) { return 0; }`, "void function"},
		{"missing-return-value", `
			int f(void) { return; }
			int main(void) { return 0; }`, "without value"},
		{"assign-to-rvalue", `int main(void) { 3 = 4; return 0; }`, "non-lvalue"},
		{"addr-of-rvalue", `int main(void) { int *p = &3; return 0; }`, "non-lvalue"},
		{"const-assign", `
			int main(void) { const int x = 1; x = 2; return x; }`, "const"},
		{"const-pointee-write", `
			int main(void) {
				const char *s = "ro";
				*s = 'x';
				return 0;
			}`, "const"},
		{"incompatible-pointer", `
			int main(void) { int *p = 0; char *q = 0; p = q; return 0; }`, "explicit cast"},
		{"switch-float-tag", `
			int main(void) { double d = 1.0; switch (d) { case 1: return 1; } return 0; }`, "integer"},
		{"incompatible-ternary", `
			struct a { int x; };
			struct b { int y; };
			int main(void) {
				struct a *pa = 0;
				struct b *pb = 0;
				void *v = 1 ? pa : pb;
				return 0;
			}`, "ternary"},
		{"incomplete-struct-use", `
			struct fwd;
			int main(void) { struct fwd *p = 0; return p->x; }`, "incomplete"},
		{"pointer-mod-compound", `
			int main(void) { int x = 1; int *p = &x; p *= 2; return 0; }`, "compound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			expectCheckError(t, c.src, c.fragment)
		})
	}
}

func TestCheckerAccepts(t *testing.T) {
	good := []string{
		// NULL converts to any pointer.
		`int main(void) { int *p = NULL; char *q = NULL; void (*f)(void) = NULL; return 0; }`,
		// 0 literal as null pointer constant.
		`int main(void) { int *p = 0; return p == 0; }`,
		// void* converts implicitly both ways.
		`int main(void) { int *p = malloc(4); void *v = p; int *q = v; return 0; }`,
		// Adding const to the pointee is fine.
		`long take(const char *s);
		 long take(const char *s) { return strlen(s); }
		 int main(void) { char *m = "x"; return (int) take(m); }`,
		// Integer widening and narrowing.
		`int main(void) { char c = 300; long l = c; int i = (int) l; return i & 1; }`,
		// sizeof both forms.
		`struct s { long a; long b; };
		 int main(void) { long t = sizeof(struct s) + sizeof(int); int x = 0; return (int)(t + sizeof(x)); }`,
		// Variadic printf with mixed args.
		`int main(void) { printf("%s %d %c", "a", 1, 'x'); return 0; }`,
	}
	for i, src := range good {
		if _, err := Frontend(src); err != nil {
			t.Errorf("program %d rejected: %v", i, err)
		}
	}
}

// TestStructFieldOfIncompleteType: a struct used by value before it is
// defined has no size yet, so a field of its type is an error, as in C;
// laid out as size 0, x overlapped y and this program returned 2. A
// pointer to it is a complete type.
func TestStructFieldOfIncompleteType(t *testing.T) {
	expectCheckError(t, `
		struct a { struct b x; long y; };
		struct b { long p; long q; };
		int main(void) { struct a v; v.x.p = 1; v.y = 2; return v.x.p; }
	`, "field x of struct a has incomplete type struct b")
	expectCheckError(t, `
		struct a { struct b xs[2]; long y; };
		struct b { long p; };
		int main(void) { return 0; }
	`, "incomplete type struct b")
	if _, err := Frontend(`
		struct a { struct b *x; long y; };
		struct b { long p; long q; };
		int main(void) { struct a v; struct b w; v.x = &w; v.x->p = 1; v.y = 2; return v.x->p; }
	`); err != nil {
		t.Errorf("pointer to a later struct rejected: %v", err)
	}
}

func TestCheckerFunctionRedefinition(t *testing.T) {
	expectCheckError(t, `
		int f(void) { return 1; }
		int f(void) { return 2; }
		int main(void) { return f(); }
	`, "redefined")
	// A prototype followed by a body is fine.
	if _, err := Frontend(`
		int f(void);
		int f(void) { return 1; }
		int main(void) { return f(); }
	`); err != nil {
		t.Errorf("prototype+definition rejected: %v", err)
	}
}

func TestCheckerGlobalRedeclaration(t *testing.T) {
	expectCheckError(t, `
		int g;
		int g;
		int main(void) { return g; }
	`, "redeclared")
}
