package vm

import (
	"fmt"
	"math"
	"strings"

	"rsti/internal/mir"
)

// chargeBytes models the cycle cost of library routines that do real
// work proportional to their input (string and memory functions): one
// cycle per byte touched. Without this, a builtin call would be nearly
// free and the relative cost of its argument authentication would be
// wildly overstated.
func (m *Machine) chargeBytes(n int) { m.Stats.Cycles += int64(n) }

// builtin dispatches an extern function call. Unknown externs are a
// program error — every extern a workload uses must either be a known
// builtin or be registered via RegisterExtern.
func (m *Machine) builtin(f *mir.Func, args []uint64) (uint64, error) {
	if h, ok := m.externs[f.Name]; ok {
		return h(m, args)
	}
	switch f.Name {
	case "malloc":
		return m.malloc(args[0])
	case "free":
		// The bump allocator does not recycle; temporal-safety scenarios
		// rely on dangling pointers remaining mapped, matching the paper's
		// use-after-free discussion.
		return 0, nil
	case "exit":
		code := int64(args[0])
		m.exitCode = &code
		return 0, exitSentinel{code}
	case "printf":
		return m.printf(args)
	case "puts":
		s, err := m.Mem.CString(m.Unit.Strip(args[0]))
		if err != nil {
			return 0, err
		}
		m.chargeBytes(len(s))
		fmt.Fprintln(m.out, s)
		return uint64(len(s) + 1), nil
	case "strlen":
		s, err := m.Mem.CString(m.Unit.Strip(args[0]))
		if err != nil {
			return 0, err
		}
		m.chargeBytes(len(s))
		return uint64(len(s)), nil
	case "strcmp":
		a, err := m.Mem.CString(m.Unit.Strip(args[0]))
		if err != nil {
			return 0, err
		}
		b, err := m.Mem.CString(m.Unit.Strip(args[1]))
		if err != nil {
			return 0, err
		}
		m.chargeBytes(len(a) + len(b))
		return uint64(int64(strings.Compare(a, b))), nil
	case "strcpy":
		src, err := m.Mem.CString(m.Unit.Strip(args[1]))
		if err != nil {
			return 0, err
		}
		dst := m.Unit.Strip(args[0])
		b, err := m.Mem.Bytes(dst, len(src)+1)
		if err != nil {
			return 0, err
		}
		copy(b, src)
		b[len(src)] = 0
		m.chargeBytes(len(src))
		return dst, nil
	case "strstr":
		hay, err := m.Mem.CString(m.Unit.Strip(args[0]))
		if err != nil {
			return 0, err
		}
		needle, err := m.Mem.CString(m.Unit.Strip(args[1]))
		if err != nil {
			return 0, err
		}
		m.chargeBytes(len(hay) + len(needle))
		idx := strings.Index(hay, needle)
		if idx < 0 {
			return 0, nil
		}
		return m.Unit.Strip(args[0]) + uint64(idx), nil
	case "memset":
		p := m.Unit.Strip(args[0])
		n := int(args[2])
		b, err := m.Mem.Bytes(p, n)
		if err != nil {
			return 0, err
		}
		for i := range b {
			b[i] = byte(args[1])
		}
		m.chargeBytes(n)
		return p, nil
	case "memcpy":
		dst, src := m.Unit.Strip(args[0]), m.Unit.Strip(args[1])
		n := int(args[2])
		db, err := m.Mem.Bytes(dst, n)
		if err != nil {
			return 0, err
		}
		sb, err := m.Mem.Bytes(src, n)
		if err != nil {
			return 0, err
		}
		copy(db, sb)
		m.chargeBytes(n)
		return dst, nil
	case "__hook":
		if h, ok := m.hooks[int64(args[0])]; ok {
			if err := h(m); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	return 0, fmt.Errorf("vm: call to unimplemented extern %q", f.Name)
}

// RegisterExtern installs a Go implementation for an extern function,
// letting scenarios model arbitrary uninstrumented library code.
func (m *Machine) RegisterExtern(name string, fn func(m *Machine, args []uint64) (uint64, error)) {
	if m.externs == nil {
		m.externs = make(map[string]func(*Machine, []uint64) (uint64, error))
	}
	m.externs[name] = fn
}

func (m *Machine) malloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	size = (size + 15) &^ 15
	if size == 0 || size > m.heapEnd-m.heapNext { // 0: the rounding wrapped
		return 0, fmt.Errorf("vm: heap exhausted (%d bytes requested)", size)
	}
	addr := m.heapNext
	m.heapNext += size
	return addr, nil
}

// printf implements the %d %ld %x %c %s %p %f verbs over VM memory.
func (m *Machine) printf(args []uint64) (uint64, error) {
	format, err := m.Mem.CString(m.Unit.Strip(args[0]))
	if err != nil {
		return 0, err
	}
	var b strings.Builder
	ai := 1
	nextArg := func() uint64 {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return 0
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' || i+1 >= len(format) {
			b.WriteByte(ch)
			continue
		}
		i++
		// Skip length modifiers.
		for format[i] == 'l' || format[i] == 'z' {
			i++
			if i >= len(format) {
				break
			}
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 'd', 'i':
			fmt.Fprintf(&b, "%d", int64(nextArg()))
		case 'u':
			fmt.Fprintf(&b, "%d", nextArg())
		case 'x':
			fmt.Fprintf(&b, "%x", nextArg())
		case 'c':
			b.WriteByte(byte(nextArg()))
		case 'p':
			fmt.Fprintf(&b, "%#x", nextArg())
		case 'f':
			fmt.Fprintf(&b, "%f", math.Float64frombits(nextArg()))
		case 's':
			addr := m.Unit.Strip(nextArg())
			if addr == 0 {
				b.WriteString("(null)") // glibc's courtesy for %s on NULL
				break
			}
			s, err := m.Mem.CString(addr)
			if err != nil {
				return 0, err
			}
			b.WriteString(s)
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(format[i])
		}
	}
	fmt.Fprint(m.out, b.String())
	return uint64(b.Len()), nil
}
