// Artifact codec, format version 2: the persistent (and peer-transferable)
// form of a compiled program *including its instrumented builds*.
//
// An artifact stores the lowered base program and one section per flavor
// of the standard build matrix (core.StandardFlavors): each section
// carries the fully instrumented (and, for optimized flavors,
// optimizer-processed) program plus its instrumentation and optimizer
// statistics. Reload seeds every per-flavor build cell and predecodes
// its execution image off the request path, so the first run
// after a cold restart costs zero instrumentation passes and zero
// predecodes — the PAC-it-up/PACTight deployment argument
// (instrumentation as the dominant cost) amortized once per *cluster*
// rather than once per process.
//
// Artifact layout (all integrity-checked on load):
//
//	offset  size  contents
//	0       8     magic "RSTIART\x02" (format version in the last byte)
//	8       32    sha256 of the payload
//	40      —     payload: gob artifactDTO (base program + flavor sections)
//
// Sections are self-contained mir.EncodeProgram payloads: the modifier
// values PAC enforcement keys on are baked into the instrumented
// instructions, so a section replays bit-identically without re-running
// the STI analysis. Any other format version, including the base-only
// version 1 (magic "RSTIART\x01"), fails the header check: the disk cache
// counts it as damage, recompiles, and rewrites the file as version 2.
package compilecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sync"

	"rsti/internal/core"
	"rsti/internal/mir"
	"rsti/internal/opt"
	"rsti/internal/rsti"
	"rsti/internal/sti"
)

// sectionDTO is one persisted build flavor: the instrumented program and
// the statistics the Build carries alongside it.
type sectionDTO struct {
	Mech      string
	Optimized bool
	Prog      []byte // mir.EncodeProgram payload
	IStats    rsti.Stats
	OptStats  *opt.Stats
}

// artifactDTO is the gob payload of a version-2 artifact.
type artifactDTO struct {
	Version  int
	Base     []byte // mir.EncodeProgram payload of the un-instrumented program
	Sections []sectionDTO
}

// EncodeArtifact serializes comp as a version-2 artifact: header,
// checksum, base program, and one section per standard build flavor. The
// flavor builds are materialized first (concurrently, through the
// compilation's per-flavor once-cells, so flavors already built for
// serving are reused and flavors built here are reused by later runs).
// This is the cluster's one-time instrumentation cost: every peer that
// adopts the artifact — and every future cold restart over it — skips
// these passes entirely.
func EncodeArtifact(comp *core.Compilation) ([]byte, error) {
	flavors := core.StandardFlavors()
	builds := make([]*core.Build, len(flavors))
	errs := make([]error, len(flavors))
	var wg sync.WaitGroup
	for i, fl := range flavors {
		wg.Add(1)
		go func(i int, fl core.BuildFlavor) {
			defer wg.Done()
			builds[i], errs[i] = comp.BuildMode(fl.Mech, fl.Optimized)
		}(i, fl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("compilecache: building %s artifact section: %w", flavors[i].Mech, err)
		}
	}

	dto := artifactDTO{Version: 2}
	var base bytes.Buffer
	if err := mir.EncodeProgram(&base, comp.Prog); err != nil {
		return nil, err
	}
	dto.Base = base.Bytes()
	for i, fl := range flavors {
		var prog bytes.Buffer
		if err := mir.EncodeProgram(&prog, builds[i].Prog); err != nil {
			return nil, err
		}
		sec := sectionDTO{
			Mech:      fl.Mech.String(),
			Optimized: fl.Optimized,
			Prog:      prog.Bytes(),
			OptStats:  builds[i].OptStats,
		}
		if builds[i].Stats != nil {
			sec.IStats = *builds[i].Stats
		}
		dto.Sections = append(dto.Sections, sec)
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&dto); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload.Bytes())
	buf := make([]byte, 0, 40+payload.Len())
	buf = append(buf, artifactMagic[:]...)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload.Bytes()...)
	return buf, nil
}

// decodeArtifact reconstitutes a compilation from artifact bytes. Any
// validation failure — bad magic or format version, checksum mismatch,
// codec version skew, a section program that fails Verify — is an
// error; the caller treats it as a cache miss and recompiles, so damage
// can cost a compile, never correctness.
func decodeArtifact(raw []byte) (*core.Compilation, error) {
	if len(raw) < 40 || [8]byte(raw[:8]) != artifactMagic {
		return nil, fmt.Errorf("compilecache: bad artifact header")
	}
	payload := raw[40:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], raw[8:40]) {
		return nil, fmt.Errorf("compilecache: artifact checksum mismatch")
	}

	var dto artifactDTO
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("compilecache: decoding artifact payload: %w", err)
	}
	if dto.Version != 2 {
		return nil, fmt.Errorf("compilecache: artifact payload version %d, want 2", dto.Version)
	}
	prog, err := mir.DecodeProgram(bytes.NewReader(dto.Base))
	if err != nil {
		return nil, err
	}
	comp, err := core.FromProgram(prog)
	if err != nil {
		return nil, err
	}
	for _, sec := range dto.Sections {
		mech, ok := sti.ParseMechanism(sec.Mech)
		if !ok {
			return nil, fmt.Errorf("compilecache: artifact section for unknown mechanism %q", sec.Mech)
		}
		sprog, err := mir.DecodeProgram(bytes.NewReader(sec.Prog))
		if err != nil {
			return nil, fmt.Errorf("compilecache: %s section: %w", sec.Mech, err)
		}
		istats := sec.IStats
		b := &core.Build{
			Mechanism: mech,
			Prog:      sprog,
			Stats:     &istats,
			Optimized: sec.Optimized,
			OptStats:  sec.OptStats,
		}
		comp.SeedBuild(mech, sec.Optimized, b)
		// Predecode the build's image now, while the artifact is loading,
		// so the first run finds it ready: cold-start cost lives here, off
		// the request path.
		b.Image()
	}
	return comp, nil
}
