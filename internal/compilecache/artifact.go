// Artifact codec, format version 4: the persistent (and peer-transferable)
// form of a compiled program — the lowered program and nothing else.
//
// Artifact layout (all integrity-checked on load):
//
//	offset  size  contents
//	0       8     magic "RSTIART\x04" (format version in the last byte)
//	8       32    sha256 of the payload
//	40      —     payload: mir.AppendProgram of the lowered program
//
// Reload skips the frontend (parse, typecheck, lower): it decodes the
// program, reruns the deterministic STI analysis (core.FromProgram), and
// leaves every (mechanism, optimizer) build to its BuildMode once-cell,
// exactly as after core.Compile. Instrumentation is not persisted: traced
// on the serve-cold benchmark, encoding and writing every instrumented
// flavour cost more than instrumenting the one flavour a request runs.
// Any other format version — the base-only version 1, the per-flavour
// version 2, and version 3, whose payload was gob — fails the header
// check: the disk cache counts it as damage, recompiles, and rewrites the
// file as version 4.
package compilecache

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"rsti/internal/core"
	"rsti/internal/mir"
)

// EncodeArtifact serializes comp's lowered program as a version-4
// artifact. The codec is deterministic, so two encodes of the same
// source produce byte-identical artifacts.
func EncodeArtifact(comp *core.Compilation) ([]byte, error) {
	return appendArtifact(nil, comp), nil
}

// appendArtifact appends comp's artifact to dst.
func appendArtifact(dst []byte, comp *core.Compilation) []byte {
	raw := mir.AppendProgram(append(dst, make([]byte, 40)...), comp.Prog) // header filled in below
	sum := sha256.Sum256(raw[40:])
	copy(raw, artifactMagic[:])
	copy(raw[8:], sum[:])
	return raw
}

// decodeArtifact reconstitutes a compilation from artifact bytes. Any
// validation failure — bad magic or format version, checksum mismatch,
// codec version skew, a program that fails Verify — is an error; the
// caller treats it as a cache miss and recompiles, so damage can cost a
// compile, never correctness.
func decodeArtifact(raw []byte) (*core.Compilation, error) {
	if len(raw) < 40 || [8]byte(raw[:8]) != artifactMagic {
		return nil, fmt.Errorf("compilecache: bad artifact header")
	}
	payload := raw[40:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], raw[8:40]) {
		return nil, fmt.Errorf("compilecache: artifact checksum mismatch")
	}
	prog, err := mir.DecodeProgram(payload)
	if err != nil {
		return nil, err
	}
	return core.FromProgram(prog)
}
