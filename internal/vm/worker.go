package vm

import "rsti/internal/pa"

// WorkerState is the per-worker reusable hot-path state of a long-lived
// execution service: the call-frame pool, the keyed PA units with their
// warm PAC memoization caches, a resident machine slot, and a reusable
// output buffer. A Machine normally owns this state itself and discards
// it when the run ends; an engine worker that executes many runs back to
// back hands the same WorkerState to every Machine it builds, so
// steady-state serving allocates no frames and keeps the PAC cache warm
// across runs.
//
// A WorkerState is NOT safe for concurrent use: it must be owned by
// exactly one goroutine (the engine worker), and the Machines built from
// it must run sequentially. Results are bit-identical with or without
// reuse — the frame pool zeroes registers on reuse, the resident machine
// is wiped before each re-point, and the PAC cache can only skip
// recomputing, never change, a PAC (see pa.Unit).
type WorkerState struct {
	frames     []*frame
	argScratch []uint64
	units      map[unitKey]*pa.Unit

	// mach is the worker's resident machine, built once and re-pointed
	// at each run's image for as long as the heap and stack sizes stay
	// the same. One slot, not a keyed cache: a machine pins its full
	// Memory (megabytes), and re-pointing it is a wipe of what the last
	// run wrote plus a few field swaps, where building a fresh one
	// allocates and zeroes that Memory. Serving traffic rotates through
	// many (program, flavour) cells per worker, so a slot keyed on the
	// image would miss on almost every request.
	mach *Machine

	// outBuf is the reusable output capture buffer, loaned out via
	// OutputBuffer and returned (possibly grown) via StowOutputBuffer.
	outBuf []byte
}

// unitKey identifies a PA unit by everything that determines its keys and
// layout; pa.Config has only comparable fields.
type unitKey struct {
	cfg  pa.Config
	seed uint64
}

// NewWorkerState returns an empty WorkerState.
func NewWorkerState() *WorkerState {
	return &WorkerState{units: make(map[unitKey]*pa.Unit)}
}

// unit returns the worker's PA unit for (cfg, seed), building it on first
// use. Key generation is deterministic, so reusing the unit (and its warm
// PAC cache) across runs changes no signed or authenticated value.
func (ws *WorkerState) unit(cfg pa.Config, seed uint64) *pa.Unit {
	k := unitKey{cfg: cfg, seed: seed}
	if u, ok := ws.units[k]; ok {
		return u
	}
	u := pa.NewUnit(cfg, pa.GenerateKeys(seed))
	ws.units[k] = u
	return u
}

// MachineFor returns a machine prepared to run img under opts. When the
// worker's resident machine has the requested heap and stack sizes it is
// re-pointed at img, the run's PA unit and cost model
// (see Machine.prepare for the isolation argument) and no allocation
// happens once the worker is warm; otherwise a fresh machine is built
// exactly as vm.New would and becomes the new resident.
func (ws *WorkerState) MachineFor(img *Image, opts Options) *Machine {
	opts.Worker = ws
	if m := ws.mach; m != nil &&
		m.heapEnd == HeapBase+uint64(opts.HeapSize) && m.stackEnd == StackBase+uint64(opts.StackSize) {
		m.prepare(img, opts)
		return m
	}
	ws.mach = New(img, opts)
	return ws.mach
}

// OutputBuffer loans out the worker's reusable output buffer (length 0,
// warm capacity). Pair with StowOutputBuffer when the run's output has
// been consumed.
func (ws *WorkerState) OutputBuffer() []byte { return ws.outBuf[:0] }

// StowOutputBuffer returns a buffer obtained from OutputBuffer (possibly
// reallocated by appends) to the worker for the next run.
func (ws *WorkerState) StowOutputBuffer(b []byte) { ws.outBuf = b }
