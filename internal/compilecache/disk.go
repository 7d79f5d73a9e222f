// Disk level of the compile cache: content-addressed artifact files that
// survive daemon restarts and travel between cluster peers. An artifact
// stores the lowered program (see artifact.go for the format); reload
// skips the frontend (parse, typecheck, lower), so a cold-started daemon
// serves its first run bit-identically to the process that wrote the
// artifact — same type-table IDs, same PAC modifiers, same modelled
// numbers — while each (mechanism, optimizer) build is instrumented once,
// on first use.
//
// Files are named <sha256-of-source-hex>.rsti and written via
// write-to-temp + atomic rename, so a crashed writer can never leave a
// half-written artifact under the content-addressed name, and two
// processes sharing one directory (two daemons, or a daemon restarting
// over a live sibling) converge on identical bytes without coordination:
// whoever renames last wins, and both renames carry the same
// content-addressed payload. Any validation failure — bad magic,
// checksum mismatch, codec version skew, a program that fails Verify —
// is treated as a miss: the source recompiles and the artifact is
// rewritten. Corruption can cost a compile, never correctness.
package compilecache

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	"rsti/internal/core"
)

var artifactMagic = [8]byte{'R', 'S', 'T', 'I', 'A', 'R', 'T', 4}

const artifactExt = ".rsti"

func (c *Cache) artifactPath(k key) string {
	return filepath.Join(c.cfg.Dir, hex.EncodeToString(k[:])+artifactExt)
}

// sweepTemps removes leftover tmp-*.rsti files from a previous writer that
// crashed between CreateTemp and the atomic rename. Each leftover is a
// half-written artifact that will never be completed, so it is deleted and
// counted as a DiskError. Called from New before the cache is shared, so
// the stats field is written without the lock. If another live process is
// mid-write, sweeping its temp file merely fails that writer's rename —
// which it already counts and survives — so the sweep can cost a compile,
// never correctness.
func (c *Cache) sweepTemps() {
	leftovers, err := filepath.Glob(filepath.Join(c.cfg.Dir, "tmp-*"+artifactExt))
	if err != nil {
		return // only a malformed pattern can fail; ours is fixed
	}
	for _, p := range leftovers {
		if os.Remove(p) == nil {
			c.stats.DiskErrors++
		}
	}
}

// loadDisk tries to reconstitute the compilation for k from its artifact
// file. It returns (nil, false) for any failure — missing file, damaged
// artifact, version skew — after counting it appropriately; the caller
// falls back to compiling. A successful load of an artifact this instance
// never wrote is additionally counted as a DiskAdoption: the artifact was
// produced by another process (an earlier daemon, a sibling sharing the
// directory, or a peer fetch persisted before a restart) and this
// instance is inheriting its frontend work.
func (c *Cache) loadDisk(k key) (*core.Compilation, bool) {
	raw, err := os.ReadFile(c.artifactPath(k))
	if err != nil {
		return nil, false // not on disk: the common cold-cache case, not an error
	}
	comp, err := decodeArtifact(raw)
	c.mu.Lock()
	if err != nil {
		c.stats.DiskErrors++
	} else {
		c.stats.DiskHits++
		if !c.written[k] {
			c.stats.DiskAdoptions++
		}
	}
	c.mu.Unlock()
	return comp, err == nil
}

// encodeBufs holds storeDisk's encode buffers: the artifact bytes are
// dropped once writeArtifact has written them.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// storeDisk encodes comp and writes its artifact. Failures are counted,
// not returned: persistence is an optimization, and the in-memory entry
// the caller just inserted already serves this process.
func (c *Cache) storeDisk(k key, comp *core.Compilation) {
	buf := encodeBufs.Get().(*[]byte)
	*buf = appendArtifact((*buf)[:0], comp)
	c.writeArtifact(k, *buf)
	encodeBufs.Put(buf)
}

// writeArtifact lands pre-encoded artifact bytes (a fresh local encode or
// a checksum-verified peer transfer) under k's content-addressed name via
// write-to-temp + atomic rename. Concurrent writers — racing goroutines,
// or separate processes sharing the directory — are idempotent: every
// writer renames a complete file holding the same deterministic content,
// so a reader never observes a torn artifact and the last rename simply
// replaces equal bytes.
func (c *Cache) writeArtifact(k key, buf []byte) {
	final := c.artifactPath(k)
	tmp, err := os.CreateTemp(c.cfg.Dir, "tmp-*"+artifactExt)
	if err != nil {
		c.diskError()
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.diskError()
		return
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		c.diskError()
		return
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.written[k] = true
	c.mu.Unlock()
}

func (c *Cache) diskError() {
	c.mu.Lock()
	c.stats.DiskErrors++
	c.mu.Unlock()
}
