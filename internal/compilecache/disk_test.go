package compilecache

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"rsti/internal/core"
	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/sti"
)

const diskSrc = `
struct pair { int a; int b; };
int sum(struct pair *p) { return p->a + p->b; }
int main() {
	struct pair p;
	p.a = 11; p.b = 31;
	printf("sum=%d\n", sum(&p));
	return sum(&p);
}
`

// countingCache returns a disk-backed cache whose compile invocations are
// counted — the observable for "served from disk without recompiling".
func countingCache(dir string, n *atomic.Int64) *Cache {
	return New(Config{Dir: dir, Compile: func(src string) (*core.Compilation, error) {
		n.Add(1)
		return core.Compile(src)
	}})
}

// TestDiskLevelSurvivesRestart is the cold-restart contract: a second
// cache instance (a restarted daemon) over the same directory serves the
// program from disk with zero compile invocations, and the reloaded
// compilation replays bit-identically.
func TestDiskLevelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	var compiles1 atomic.Int64
	c1 := countingCache(dir, &compiles1)
	orig, err := c1.Get(diskSrc)
	if err != nil {
		t.Fatalf("first Get: %v", err)
	}
	if got := compiles1.Load(); got != 1 {
		t.Fatalf("first instance compiled %d times, want 1", got)
	}
	if s := c1.Stats(); s.DiskWrites != 1 || s.DiskHits != 0 {
		t.Fatalf("first instance disk stats: %+v, want 1 write, 0 hits", s)
	}

	// "Restart": a fresh cache, same directory, empty memory level.
	var compiles2 atomic.Int64
	c2 := countingCache(dir, &compiles2)
	reload, err := c2.Get(diskSrc)
	if err != nil {
		t.Fatalf("post-restart Get: %v", err)
	}
	if got := compiles2.Load(); got != 0 {
		t.Fatalf("restarted instance compiled %d times, want 0 (disk hit)", got)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.DiskWrites != 0 || s.Misses != 1 {
		t.Fatalf("restarted instance stats: %+v, want 1 disk hit, 0 writes, 1 miss", s)
	}

	// Bit-identical replay across the restart, for every mechanism.
	for _, mech := range sti.Mechanisms {
		a, err := orig.Run(mech, core.RunConfig{})
		if err != nil {
			t.Fatalf("%v: original run: %v", mech, err)
		}
		b, err := reload.Run(mech, core.RunConfig{})
		if err != nil {
			t.Fatalf("%v: reloaded run: %v", mech, err)
		}
		if a.Exit != b.Exit || a.Output != b.Output || a.Stats != b.Stats {
			t.Errorf("%v: reloaded run diverged: orig (exit %d, %q, %+v) vs reload (exit %d, %q, %+v)",
				mech, a.Exit, a.Output, a.Stats, b.Exit, b.Output, b.Stats)
		}
	}

	// The second Get on the restarted instance is a plain memory hit.
	if _, err := c2.Get(diskSrc); err != nil {
		t.Fatalf("memory-hit Get: %v", err)
	}
	if s := c2.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Fatalf("after memory hit: %+v, want 1 hit, 1 disk hit", s)
	}
}

// TestDiskCorruptionFallsBackToCompile damages the artifact in each
// interesting way and verifies the cache recompiles (counting a
// DiskError) instead of failing or serving garbage.
func TestDiskCorruptionFallsBackToCompile(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:20] },
		"bad magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte":  func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"version skew":  func(b []byte) []byte { b[7] = 99; return b },
		"empty payload": func(b []byte) []byte { return b[:0] },
	}
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			dir := t.TempDir()
			var compiles atomic.Int64
			c1 := countingCache(dir, &compiles)
			if _, err := c1.Get(diskSrc); err != nil {
				t.Fatalf("seed Get: %v", err)
			}

			k := sha256.Sum256([]byte(diskSrc))
			path := c1.artifactPath(k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading artifact: %v", err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatalf("corrupting artifact: %v", err)
			}

			var compiles2 atomic.Int64
			c2 := countingCache(dir, &compiles2)
			if _, err := c2.Get(diskSrc); err != nil {
				t.Fatalf("Get over corrupted artifact: %v", err)
			}
			if got := compiles2.Load(); got != 1 {
				t.Errorf("compiled %d times, want 1 (fallback)", got)
			}
			s := c2.Stats()
			if s.DiskErrors != 1 {
				t.Errorf("DiskErrors = %d, want 1; stats %+v", s.DiskErrors, s)
			}
			// The fallback compile rewrote a good artifact: a third
			// instance gets a clean disk hit again.
			var compiles3 atomic.Int64
			c3 := countingCache(dir, &compiles3)
			if _, err := c3.Get(diskSrc); err != nil {
				t.Fatalf("Get after repair: %v", err)
			}
			if got := compiles3.Load(); got != 0 {
				t.Errorf("post-repair instance compiled %d times, want 0", got)
			}
		})
	}
}

// TestDiskRepairPaths is the table of disk-level self-repair scenarios:
// each case damages the persistent level in one specific way, then
// verifies a fresh cache instance counts the damage under DiskErrors,
// still answers the Get correctly, and — where repair is possible —
// leaves the directory healthy enough that a third instance gets a clean
// disk hit with zero compiles. The unwritable-directory case runs as
// root, where permission bits are ignored, so it provokes the failure by
// pointing Dir at an existing regular file instead.
func TestDiskRepairPaths(t *testing.T) {
	type want struct {
		compiles, diskErrors, diskHits, diskWrites int64
	}
	cases := []struct {
		name string
		// breakFS damages the seeded directory (dir holds one good
		// artifact at path) and returns the Dir for the second instance.
		breakFS func(t *testing.T, dir, artifact string) string
		want    want
		// repairCompiles is what a third instance over the same Dir must
		// compile: 0 when the second instance repaired the disk level, 1
		// when the Dir stays unusable.
		repairCompiles int64
	}{
		{
			name: "truncated_header",
			breakFS: func(t *testing.T, dir, artifact string) string {
				raw, err := os.ReadFile(artifact)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(artifact, raw[:8], 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 1},
			repairCompiles: 0,
		},
		{
			name: "checksum_mismatch",
			breakFS: func(t *testing.T, dir, artifact string) string {
				raw, err := os.ReadFile(artifact)
				if err != nil {
					t.Fatal(err)
				}
				raw[45] ^= 0xff // inside the payload: header intact, sha256 now wrong
				if err := os.WriteFile(artifact, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 1},
			repairCompiles: 0,
		},
		{
			// A well-formed artifact under format version 1, whose payload
			// was the same lowered program version 4 stores: only the
			// version byte differs, and the header check rejects it.
			name:           "v1_artifact",
			breakFS:        oldVersionArtifact(1),
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 1},
			repairCompiles: 0,
		},
		{
			// Version 2 carried per-flavour instrumented sections; no
			// decoder for it remains, so its header alone sends it down
			// the repair path.
			name:           "v2_artifact",
			breakFS:        oldVersionArtifact(2),
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 1},
			repairCompiles: 0,
		},
		{
			// Version 3 stored the same lowered program as gob; no gob
			// decoder remains, so the repair rewrites it as version 4.
			name:           "v3_artifact",
			breakFS:        oldVersionArtifact(3),
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 1},
			repairCompiles: 0,
		},
		{
			name: "leftover_temp_file",
			breakFS: func(t *testing.T, dir, artifact string) string {
				// A crashed writer's half-written temp; the good artifact
				// stays intact, so the Get itself is a disk hit.
				p := filepath.Join(dir, "tmp-orphan.rsti")
				if err := os.WriteFile(p, []byte("half-written artifact"), 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			want:           want{compiles: 0, diskErrors: 1, diskHits: 1, diskWrites: 0},
			repairCompiles: 0,
		},
		{
			name: "unwritable_dir",
			breakFS: func(t *testing.T, dir, artifact string) string {
				p := filepath.Join(t.TempDir(), "not-a-dir")
				if err := os.WriteFile(p, []byte("occupied"), 0o644); err != nil {
					t.Fatal(err)
				}
				return p // MkdirAll over a regular file fails on any uid
			},
			want:           want{compiles: 1, diskErrors: 1, diskHits: 0, diskWrites: 0},
			repairCompiles: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var seed atomic.Int64
			c1 := countingCache(dir, &seed)
			if _, err := c1.Get(diskSrc); err != nil {
				t.Fatalf("seed Get: %v", err)
			}
			k := sha256.Sum256([]byte(diskSrc))
			dir2 := tc.breakFS(t, dir, c1.artifactPath(k))

			var compiles atomic.Int64
			c2 := countingCache(dir2, &compiles)
			if _, err := c2.Get(diskSrc); err != nil {
				t.Fatalf("Get over damaged disk level: %v", err)
			}
			s := c2.Stats()
			got := want{compiles: compiles.Load(), diskErrors: s.DiskErrors, diskHits: s.DiskHits, diskWrites: s.DiskWrites}
			if got != tc.want {
				t.Errorf("after damage: %+v, want %+v", got, tc.want)
			}

			// No temp files may survive an instance's lifetime, whatever
			// the damage was, and a rewrite lands in the current format.
			if dir2 == dir {
				if temps, _ := filepath.Glob(filepath.Join(dir, "tmp-*.rsti")); len(temps) != 0 {
					t.Errorf("temp files left behind: %v", temps)
				}
				raw, err := os.ReadFile(c1.artifactPath(k))
				if err != nil || len(raw) < 8 || [8]byte(raw[:8]) != artifactMagic {
					t.Errorf("artifact not in the current format after repair (err=%v)", err)
				}
			}

			var repair atomic.Int64
			c3 := countingCache(dir2, &repair)
			if _, err := c3.Get(diskSrc); err != nil {
				t.Fatalf("Get after repair: %v", err)
			}
			if got := repair.Load(); got != tc.repairCompiles {
				t.Errorf("post-repair instance compiled %d times, want %d", got, tc.repairCompiles)
			}
		})
	}
}

// oldVersionArtifact returns a TestDiskRepairPaths breakFS that replaces
// the artifact with a checksum-valid file under format version v.
func oldVersionArtifact(v byte) func(t *testing.T, dir, artifact string) string {
	return func(t *testing.T, dir, artifact string) string {
		comp, err := core.Compile(diskSrc)
		if err != nil {
			t.Fatal(err)
		}
		payload := mir.AppendProgram(nil, comp.Prog)
		magic := artifactMagic
		magic[7] = v
		sum := sha256.Sum256(payload)
		raw := append(append(magic[:], sum[:]...), payload...)
		if err := os.WriteFile(artifact, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
}

// TestDiskLevelDisabledWithoutDir pins the default: no Dir, no files.
func TestDiskLevelDisabledWithoutDir(t *testing.T) {
	var compiles atomic.Int64
	c := New(Config{Compile: func(src string) (*core.Compilation, error) {
		compiles.Add(1)
		return core.Compile(src)
	}})
	if _, err := c.Get(diskSrc); err != nil {
		t.Fatalf("Get: %v", err)
	}
	s := c.Stats()
	if s.DiskHits != 0 || s.DiskWrites != 0 || s.DiskErrors != 0 {
		t.Fatalf("memory-only cache touched disk counters: %+v", s)
	}
}

// TestDiskArtifactNaming pins the content-addressed layout other tools
// (cache inspection, CI) rely on: <sha256(source)>.rsti directly in Dir.
func TestDiskArtifactNaming(t *testing.T) {
	dir := t.TempDir()
	var compiles atomic.Int64
	c := countingCache(dir, &compiles)
	if _, err := c.Get(diskSrc); err != nil {
		t.Fatalf("Get: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 1 {
		t.Fatalf("artifact dir has %d entries, want 1", len(ents))
	}
	k := sha256.Sum256([]byte(diskSrc))
	want := filepath.Base(c.artifactPath(k))
	if ents[0].Name() != want {
		t.Fatalf("artifact named %q, want %q", ents[0].Name(), want)
	}
}

// indexSrc has every index kind Verify range-checks for the STI analysis
// and the VM: parameter variables, slot variables, a global and a string
// literal.
const indexSrc = `
int g;
int add(int a, int b) { return a + b; }
int main() {
	g = add(40, 2);
	printf("g=%d\n", g);
	return g;
}
`

// TestDiskRejectsOutOfRangeIndices: an artifact whose checksum holds but
// whose program points a parameter or slot at a missing variable, or a
// global address or string literal past its table, is damage; so is a
// struct that contains itself by value, a field slot with no struct, or
// a register count past mir.MaxRegs. Loaded unchecked, such a program
// panics the analysis (wedging its source's flight) or every later run,
// recurses without end sizing the struct, or allocates gigabytes per
// call frame; the decoder's Verify rejects it, so it costs one disk
// error and one compile, the artifact is rewritten, and the next
// instance reloads it cleanly.
func TestDiskRejectsOutOfRangeIndices(t *testing.T) {
	first := func(p *mir.Program, match func(*mir.Instr) bool) *mir.Instr {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if match(&b.Instrs[i]) {
						return &b.Instrs[i]
					}
				}
			}
		}
		t.Fatal("no instruction to damage")
		return nil
	}
	mutations := []struct {
		name   string
		mutate func(p *mir.Program)
	}{
		{"param_var", func(p *mir.Program) { p.ByName["add"].ParamVar[0] = len(p.Vars) }},
		{"slot_var", func(p *mir.Program) {
			first(p, func(in *mir.Instr) bool { return in.Slot.Kind == mir.SlotVar }).Slot.Var = len(p.Vars)
		}},
		{"global", func(p *mir.Program) {
			first(p, func(in *mir.Instr) bool { return in.Op == mir.GlobalAddr }).Imm = int64(len(p.Globals))
		}},
		{"string", func(p *mir.Program) {
			first(p, func(in *mir.Instr) bool { return in.Op == mir.StrConst }).Imm = int64(len(p.Strings))
		}},
		{"struct_contains_itself", func(p *mir.Program) {
			self := &ctypes.Type{Kind: ctypes.Struct, Name: "self"}
			self.Fields = []ctypes.Field{{Name: "s", Type: self}}
			p.Globals[0].Type = self
			p.Vars[p.Globals[0].Var].Type = self
		}},
		{"field_slot_without_struct", func(p *mir.Program) {
			first(p, func(in *mir.Instr) bool { return in.Op == mir.Store }).Slot = mir.Slot{Kind: mir.SlotField}
		}},
		{"registers_past_max", func(p *mir.Program) { p.ByName["add"].NumRegs = mir.MaxRegs + 1 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			var seed atomic.Int64
			c1 := countingCache(dir, &seed)
			if _, err := c1.Get(indexSrc); err != nil {
				t.Fatalf("seed Get: %v", err)
			}
			path := c1.artifactPath(sha256.Sum256([]byte(indexSrc)))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := mir.DecodeProgram(raw[40:])
			if err != nil {
				t.Fatal(err)
			}
			m.mutate(p)
			payload := mir.AppendProgram(nil, p)
			sum := sha256.Sum256(payload)
			damaged := append(append(append([]byte(nil), raw[:8]...), sum[:]...), payload...)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			var compiles atomic.Int64
			c2 := countingCache(dir, &compiles)
			if _, err := getBounded(t, c2, indexSrc); err != nil {
				t.Fatalf("Get over the damaged artifact: %v", err)
			}
			s := c2.Stats()
			if compiles.Load() != 1 || s.DiskErrors != 1 || s.DiskHits != 0 || s.DiskWrites != 1 {
				t.Fatalf("after damage: %d compiles, stats %+v; want 1 compile, 1 disk error, 0 hits, 1 write",
					compiles.Load(), s)
			}
			if _, err := getBounded(t, c2, indexSrc); err != nil {
				t.Fatalf("later Get: %v", err)
			}

			var repair atomic.Int64
			c3 := countingCache(dir, &repair)
			if _, err := getBounded(t, c3, indexSrc); err != nil {
				t.Fatalf("Get after repair: %v", err)
			}
			if n := repair.Load(); n != 0 {
				t.Fatalf("post-repair instance compiled %d times, want 0", n)
			}
		})
	}
}
