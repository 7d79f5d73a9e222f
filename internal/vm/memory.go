package vm

import (
	"encoding/binary"
	"fmt"
)

// Segment bases of the VM's 48-bit virtual address space. The exact values
// are arbitrary but fixed, so experiments are reproducible and addresses
// recognizable in traces.
const (
	GlobalsBase = 0x0000_1000_0000
	StringsBase = 0x0000_2000_0000
	HeapBase    = 0x0000_4000_0000
	StackBase   = 0x0000_7000_0000 // grows upward frame by frame
	FuncBase    = 0x0000_F000_0000 // function entry tokens

	// FuncStride separates function tokens so that an off-by-small
	// corruption of a code pointer never lands on another valid entry.
	FuncStride = 16
)

// chunkShift carves the address space into 256 MiB chunks for O(1)
// segment dispatch: every segment base is 256 MiB-aligned and no segment
// may span past the next base, so a chunk maps to at most one segment.
const chunkShift = 28

// Memory is the VM's flat memory: a handful of segments, each a byte
// slice. Loads and stores are bounds-checked; the attack hooks use the
// unchecked Poke/Peek to model an attacker's arbitrary-write primitive.
// Segment resolution is a shift and a table index, not a scan — the
// interpreter performs one find per modelled load/store.
type Memory struct {
	segs []segment
	// byChunk maps addr>>chunkShift to the owning segment (nil = unmapped).
	byChunk []*segment
}

type segment struct {
	name string
	base uint64
	data []byte
	// hi is the write watermark: one past the highest offset any Store or
	// Bytes view has touched since the last Reset. Store and Bytes are the
	// only mutation funnels (Poke routes through Store; attack hooks and
	// builtins use Bytes), so wiping data[:hi] on Machine.Reset restores a
	// provably pristine segment at cost proportional to the bytes actually
	// dirtied, not the segment size.
	hi int
}

// NewMemory builds the standard segment layout.
func NewMemory(globalsSize, stringsSize, heapSize, stackSize int) *Memory {
	m := &Memory{segs: []segment{
		{name: "globals", base: GlobalsBase, data: make([]byte, globalsSize)},
		{name: "strings", base: StringsBase, data: make([]byte, stringsSize)},
		{name: "heap", base: HeapBase, data: make([]byte, heapSize)},
		{name: "stack", base: StackBase, data: make([]byte, stackSize)},
	}}
	m.mapChunks()
	return m
}

// mapChunks rebuilds the chunk table from the segments' current sizes,
// reusing the table's backing array when it is long enough.
func (m *Memory) mapChunks() {
	var top uint64
	for _, s := range m.segs {
		if end := s.base + uint64(len(s.data)); end > top {
			top = end
		}
	}
	n := int(top>>chunkShift) + 1
	if cap(m.byChunk) < n {
		m.byChunk = make([]*segment, n)
	} else {
		m.byChunk = m.byChunk[:n]
		clear(m.byChunk)
	}
	for i := range m.segs {
		s := &m.segs[i]
		if len(s.data) == 0 {
			continue
		}
		for c := s.base >> chunkShift; c <= (s.base+uint64(len(s.data))-1)>>chunkShift; c++ {
			m.byChunk[c] = s
		}
	}
}

// wipe zeroes every byte written since the last wipe and resets the
// write watermarks. Bytes past a watermark were never written, so after a
// wipe each segment's whole backing array, capacity included, reads zero.
func (m *Memory) wipe() {
	for i := range m.segs {
		s := &m.segs[i]
		if s.hi > 0 {
			clear(s.data[:s.hi])
			s.hi = 0
		}
	}
}

// resizeData sizes the globals and strings segments for a new image,
// keeping each backing array that is large enough and allocating a fresh
// one otherwise. It must directly follow a wipe: only then is every byte
// a shrink hides, or a regrowth within capacity exposes, zero.
func (m *Memory) resizeData(globalsSize, stringsSize int) {
	for i, n := range [2]int{globalsSize, stringsSize} {
		s := &m.segs[i]
		if n <= cap(s.data) {
			s.data = s.data[:n]
		} else {
			s.data = make([]byte, n)
		}
	}
	m.mapChunks()
}

func (m *Memory) find(addr uint64, n int) (*segment, int, error) {
	if c := addr >> chunkShift; c < uint64(len(m.byChunk)) {
		if s := m.byChunk[c]; s != nil && addr >= s.base && addr+uint64(n) <= s.base+uint64(len(s.data)) {
			return s, int(addr - s.base), nil
		}
	}
	return nil, 0, fmt.Errorf("address %#x (+%d) is unmapped", addr, n)
}

// Load reads n bytes (1, 2, 4 or 8) little-endian.
func (m *Memory) Load(addr uint64, n int) (uint64, error) {
	s, off, err := m.find(addr, n)
	if err != nil {
		return 0, err
	}
	return loadLE(s.data[off:], n), nil
}

// loadLE reads n little-endian bytes from b (bounds already checked).
func loadLE(b []byte, n int) uint64 {
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// storeLE writes n little-endian bytes of v into b (bounds already checked).
func storeLE(b []byte, v uint64, n int) {
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 1:
		b[0] = byte(v)
	default:
		for i := 0; i < n; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// Store writes n bytes little-endian.
func (m *Memory) Store(addr uint64, v uint64, n int) error {
	s, off, err := m.find(addr, n)
	if err != nil {
		return err
	}
	if end := off + n; end > s.hi {
		s.hi = end
	}
	storeLE(s.data[off:], v, n)
	return nil
}

// Bytes returns a mutable view of [addr, addr+n).
func (m *Memory) Bytes(addr uint64, n int) ([]byte, error) {
	s, off, err := m.find(addr, n)
	if err != nil {
		return nil, err
	}
	if end := off + n; end > s.hi {
		s.hi = end
	}
	return s.data[off : off+n], nil
}

// CString reads a NUL-terminated string.
func (m *Memory) CString(addr uint64) (string, error) {
	s, off, err := m.find(addr, 1)
	if err != nil {
		return "", err
	}
	end := off
	for end < len(s.data) && s.data[end] != 0 {
		end++
	}
	if end == len(s.data) {
		return "", fmt.Errorf("unterminated string at %#x", addr)
	}
	return string(s.data[off:end]), nil
}

// Poke is the attacker's arbitrary write: unchecked by design (the checks
// still apply — it must land in a mapped segment — but no type, bounds or
// permission discipline applies, exactly like a buffer-overflow write).
func (m *Memory) Poke(addr uint64, v uint64, n int) error { return m.Store(addr, v, n) }

// Peek is the attacker's arbitrary read.
func (m *Memory) Peek(addr uint64, n int) (uint64, error) { return m.Load(addr, n) }
