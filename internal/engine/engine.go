// Package engine is the concurrent execution service behind rsti.Engine
// and cmd/rstid: a long-lived, sharded pool of VM workers serving runs of
// compiled programs in the paper's compile-once/run-many shape (§6.6's
// server workloads).
//
// Each worker owns a vm.WorkerState — a call-frame pool and warm PAC
// memoization caches — that successive runs on that worker reuse, so
// steady-state serving allocates no frames and keeps PAC hit rates high
// across requests. Jobs enter through a bounded queue: Submit applies
// backpressure by blocking (until the job is accepted, the caller's
// context is done, or the engine closes), TrySubmit fails fast with
// ErrQueueFull. A run that panics poisons only its worker's reusable
// state, which is discarded and rebuilt; the engine itself keeps serving.
//
// Reported numbers are unaffected by the engine: a run's cycles, trap
// outcome and equivalence statistics are bit-identical to the same run
// executed single-threaded, because every job gets its own vm.Machine and
// worker-state reuse is observable only through host-side cache counters.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/core"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// Engine errors, matched with errors.Is.
var (
	// ErrQueueFull is returned by TrySubmit when the job queue is at
	// capacity (the fail-fast face of backpressure).
	ErrQueueFull = errors.New("engine: queue full")
	// ErrClosed is returned for jobs submitted to (or stranded in) a
	// closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrPanic wraps a panic recovered from a run; the submitter gets it
	// as the job error while the engine keeps serving.
	ErrPanic = errors.New("engine: run panicked")
)

// Config sizes an Engine.
type Config struct {
	// Workers is the number of VM workers (goroutines with their own
	// reusable machine state). Zero means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-yet-running jobs.
	// Zero means 4×Workers.
	QueueDepth int
}

// Job is one execution request: a compiled program, the mechanism to
// enforce, and the run configuration.
type Job struct {
	Comp *core.Compilation
	Mech sti.Mechanism
	Cfg  core.RunConfig
}

// Stats is a point-in-time snapshot of the engine's aggregate counters,
// shaped for a /metrics endpoint.
type Stats struct {
	Workers int `json:"workers"`
	// Queued and Running are gauges: jobs waiting in the queue and jobs
	// currently executing on a worker.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Submitted counts accepted jobs; Rejected counts TrySubmit calls
	// refused with ErrQueueFull.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// Completed counts finished jobs (clean exits and trapped runs
	// alike); Trapped the subset that ended in a machine trap other than
	// cancellation; Cancelled the subset stopped by context cancellation
	// or deadline; Panicked the runs that panicked and were isolated.
	Completed int64 `json:"completed"`
	Trapped   int64 `json:"trapped"`
	Cancelled int64 `json:"cancelled"`
	Panicked  int64 `json:"panicked"`
	// Aggregate modelled execution volume and the PAC memoization
	// counters summed over all completed runs.
	Instrs         int64 `json:"instrs"`
	Cycles         int64 `json:"cycles"`
	PACCacheHits   int64 `json:"pac_cache_hits"`
	PACCacheMisses int64 `json:"pac_cache_misses"`
	// UptimeSeconds is the wall-clock age of the engine.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// PACCacheHitRate is the fraction of PAC computations served from worker
// caches (0 when none ran).
func (s Stats) PACCacheHitRate() float64 {
	total := s.PACCacheHits + s.PACCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.PACCacheHits) / float64(total)
}

// InstrsPerSec is the engine-lifetime aggregate modelled instruction
// throughput (modelled instrs per host second).
func (s Stats) InstrsPerSec() float64 {
	if s.UptimeSeconds <= 0 {
		return 0
	}
	return float64(s.Instrs) / s.UptimeSeconds
}

// taskResult pairs a run's outcome with its transport error.
type taskResult struct {
	res *core.RunResult
	err error
}

// task is one queued unit of work. do runs on a worker goroutine with
// that worker's reusable state; res is buffered so the worker never
// blocks delivering to a departed submitter.
type task struct {
	ctx context.Context
	do  func(ctx context.Context, ws *vm.WorkerState) (*core.RunResult, error)
	res chan taskResult
}

// Engine is the concurrent execution service. Create with New, submit
// with Submit/TrySubmit, snapshot with Stats, shut down with Close.
type Engine struct {
	cfg   Config
	queue chan *task
	start time.Time

	// root is cancelled by Close so in-flight runs stop at their next
	// interpreter checkpoint instead of finishing at leisure.
	root     context.Context
	stopRoot context.CancelFunc
	wg       sync.WaitGroup

	running   atomic.Int64
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	trapped   atomic.Int64
	cancelled atomic.Int64
	panicked  atomic.Int64
	instrs    atomic.Int64
	cycles    atomic.Int64
	pacHits   atomic.Int64
	pacMisses atomic.Int64
}

// New starts an engine with cfg.Workers workers.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	root, stop := context.WithCancel(context.Background())
	e := &Engine{
		cfg:      cfg,
		queue:    make(chan *task, cfg.QueueDepth),
		start:    time.Now(),
		root:     root,
		stopRoot: stop,
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Close stops the engine: no new jobs are accepted, in-flight runs are
// cancelled at their next checkpoint, and queued-but-unstarted jobs fail
// with ErrClosed. Close blocks until every worker has exited. It is safe
// to call once; an Engine is not reusable after Close.
func (e *Engine) Close() {
	e.stopRoot()
	e.wg.Wait()
	// Fail any submitters still parked in the queue (their wait select
	// also watches e.root, so this drain is belt and braces for tasks
	// dequeued by nobody).
	for {
		select {
		case t := <-e.queue:
			t.res <- taskResult{nil, ErrClosed}
		default:
			return
		}
	}
}

// Submit enqueues a run and waits for its result, blocking while the
// queue is full — the backpressure face of admission. It returns early
// with ctx.Err() if the caller's context ends first, or ErrClosed if the
// engine shuts down. The returned RunResult is exactly what
// core.RunContext produces, including a *core.TrapError for trapped runs.
func (e *Engine) Submit(ctx context.Context, job Job) (*core.RunResult, error) {
	return e.dispatch(ctx, e.runTask(job), true)
}

// TrySubmit is Submit without the blocking: a full queue fails
// immediately with ErrQueueFull so the caller can shed load.
func (e *Engine) TrySubmit(ctx context.Context, job Job) (*core.RunResult, error) {
	return e.dispatch(ctx, e.runTask(job), false)
}

// SubmitFunc runs an arbitrary function on an engine worker — the escape
// hatch the evaluation sweeps use to push compile-side work (Table 3
// static analysis) through the same bounded worker pool as executions.
// fn observes cancellation through its ctx argument.
func (e *Engine) SubmitFunc(ctx context.Context, fn func(ctx context.Context) error) error {
	_, err := e.dispatch(ctx, func(runCtx context.Context, _ *vm.WorkerState) (*core.RunResult, error) {
		return nil, fn(runCtx)
	}, true)
	return err
}

// runTask adapts a Job into a task body that charges the engine's
// aggregate counters.
func (e *Engine) runTask(job Job) func(context.Context, *vm.WorkerState) (*core.RunResult, error) {
	return func(ctx context.Context, ws *vm.WorkerState) (*core.RunResult, error) {
		cfg := job.Cfg
		cfg.Worker = ws
		res, err := job.Comp.RunContext(ctx, job.Mech, cfg)
		if res != nil {
			e.instrs.Add(res.Stats.Instrs)
			e.cycles.Add(res.Stats.Cycles)
			e.pacHits.Add(res.Stats.PACCacheHits)
			e.pacMisses.Add(res.Stats.PACCacheMisses)
			if res.Trap != nil {
				if res.Trap.Kind == vm.TrapCancelled {
					e.cancelled.Add(1)
				} else {
					e.trapped.Add(1)
				}
			}
		}
		return res, err
	}
}

// dispatch enqueues t's work and waits for the worker's reply.
func (e *Engine) dispatch(ctx context.Context, do func(context.Context, *vm.WorkerState) (*core.RunResult, error), block bool) (*core.RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.root.Err(); err != nil {
		return nil, ErrClosed
	}
	t := &task{ctx: ctx, do: do, res: make(chan taskResult, 1)}
	// Count the admission BEFORE the queue send and roll it back on the
	// paths where the job was never accepted. The moment the send
	// succeeds a worker may dequeue, run, and count the job completed;
	// charging submitted only afterwards let a concurrent Stats snapshot
	// observe Completed > Submitted. A transient overcount in the other
	// direction (an attempt that is rolled back) keeps the invariant
	// Completed + Panicked ≤ Submitted true at every instant.
	e.submitted.Add(1)
	if block {
		select {
		case e.queue <- t:
		case <-ctx.Done():
			e.submitted.Add(-1)
			return nil, ctx.Err()
		case <-e.root.Done():
			e.submitted.Add(-1)
			return nil, ErrClosed
		}
	} else {
		select {
		case e.queue <- t:
		default:
			e.submitted.Add(-1)
			e.rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	select {
	case r := <-t.res:
		return r.res, r.err
	case <-ctx.Done():
		// The worker (or Close's drain) still delivers into the buffered
		// channel; nobody blocks on our departure.
		return nil, ctx.Err()
	case <-e.root.Done():
		// Prefer a result that raced with shutdown.
		select {
		case r := <-t.res:
			return r.res, r.err
		default:
			return nil, ErrClosed
		}
	}
}

// worker is one shard of the pool: a goroutine owning a WorkerState that
// executes queued tasks until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	ws := vm.NewWorkerState()
	for {
		select {
		case <-e.root.Done():
			return
		case t := <-e.queue:
			e.running.Add(1)
			res, err := e.execute(t, &ws)
			e.running.Add(-1)
			if !errors.Is(err, ErrPanic) {
				e.completed.Add(1)
			}
			t.res <- taskResult{res, err}
		}
	}
}

// execute runs one task with panic isolation: a panicking run is
// converted into an ErrPanic job error, and the worker's reusable state —
// whose pools may be mid-mutation — is discarded and rebuilt, so the
// poison cannot leak into later runs.
func (e *Engine) execute(t *task, ws **vm.WorkerState) (res *core.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked.Add(1)
			*ws = vm.NewWorkerState()
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	// Runs must stop when either the submitter's context ends or the
	// engine closes; derive a context cancelled by both.
	runCtx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	stop := context.AfterFunc(e.root, cancel)
	defer stop()
	return t.do(runCtx, *ws)
}

// Stats snapshots the aggregate counters. Completed and Panicked are
// loaded before Submitted: a job is counted submitted before it can be
// dequeued, so every finish the snapshot sees was already admitted when
// Submitted is read, and Completed + Panicked ≤ Submitted holds for every
// snapshot. Loading Submitted first would let a job admitted and finished
// between the loads show up as finished but not submitted.
func (e *Engine) Stats() Stats {
	completed, panicked := e.completed.Load(), e.panicked.Load()
	return Stats{
		Workers:        e.cfg.Workers,
		Queued:         len(e.queue),
		Running:        int(e.running.Load()),
		Submitted:      e.submitted.Load(),
		Rejected:       e.rejected.Load(),
		Completed:      completed,
		Trapped:        e.trapped.Load(),
		Cancelled:      e.cancelled.Load(),
		Panicked:       panicked,
		Instrs:         e.instrs.Load(),
		Cycles:         e.cycles.Load(),
		PACCacheHits:   e.pacHits.Load(),
		PACCacheMisses: e.pacMisses.Load(),
		UptimeSeconds:  time.Since(e.start).Seconds(),
	}
}
