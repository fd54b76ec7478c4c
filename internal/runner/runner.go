// Package runner fans independent simulation cells out over a worker
// pool while keeping every observable output identical to the
// sequential run.
//
// The repository's hot loops — figure grids in internal/exp, crash-point
// sweeps in internal/crash, the mutant cross-validation suite — are all
// embarrassingly parallel: each cell builds its own engine, controller
// and device over read-only inputs (traces, configs), so cells share no
// simulation state. What they are NOT is reorderable in their *output*:
// figures must stay byte-identical across -j values, and a crash report
// must list points in sweep order. Map therefore collects results in
// submission order regardless of completion order, and callers format
// rows only after the fan-out returns.
//
// Crash sweeps are the exception to "each cell builds its own engine":
// their cells are ascending crash instants on one timeline, so MapRuns
// hands each worker a contiguous run of cells and one state (a machine
// replaying forward) for the whole run.
//
// Simulation instances are not goroutine-safe (see internal/nvm); the
// contract here is that fn touches only state it creates itself (or,
// under MapRuns, its run's state) plus inputs that are immutable for the
// duration of the call. The -race CI
// job runs the full figure suite and crash sweeps through this pool to
// hold that contract.
//
// Wall-clock time appears in this package only as operational telemetry
// (cell durations for progress sinks and timeouts); it never feeds
// simulated state or stdout results.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Options configure one Map call.
type Options struct {
	// Workers is the parallelism degree (-j); <= 0 uses GOMAXPROCS.
	// Workers == 1 degenerates to the sequential loop.
	Workers int
	// Timeout bounds each cell's wall-clock runtime; 0 means none. A
	// cell that exceeds it yields an error result carrying its label;
	// the cell's goroutine is abandoned (the simulator has no
	// preemption points) but the pool itself moves on.
	Timeout time.Duration
	// Label names cell i in errors and progress records; nil labels
	// cells "cell <i>".
	Label func(i int) string
	// OnDone, when non-nil, receives one Progress record per completed
	// cell in completion (wall-clock) order. Calls are serialized, so
	// the sink needs no locking of its own. Progress carries wall-clock
	// durations and must only feed stderr or side files, never the
	// simulated-time-only stdout results.
	OnDone func(Progress)
}

// Progress describes one completed cell.
type Progress struct {
	Label string
	Index int
	Total int
	Wall  time.Duration
	Err   error
}

// Result is one cell's outcome. Map returns results in submission
// order, so Result[i] always corresponds to jobs[i].
type Result[R any] struct {
	Label string
	Value R
	Err   error
	Wall  time.Duration
}

// PanicError is the error result of a cell whose function panicked: the
// pool converts panics into ordinary error results carrying the cell
// label and stack, so one bad cell cannot kill a whole figure run.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: cell %s panicked: %v\n%s", e.Label, e.Value, e.Stack)
}

// Map runs fn over jobs on a pool of Workers goroutines and returns one
// Result per job, in submission order. A cell that panics becomes a
// PanicError result; a cell that outlives Options.Timeout or starts
// after ctx is cancelled becomes a plain error result. Map itself never
// fails and always returns len(jobs) results.
func Map[T, R any](ctx context.Context, jobs []T, fn func(ctx context.Context, job T) (R, error), opts Options) []Result[R] {
	p := newPool[T, R](ctx, jobs, opts)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p.do(i, fn)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return p.results
}

// MapRuns is Map for jobs that share costly state along their order,
// such as one machine replaying forward through ascending crash
// deadlines. It splits jobs into at most Workers contiguous runs, one
// goroutine each, and runs each run's jobs in order over one state that
// newState builds just before the run's first job. A job that fails —
// error, panic, timeout or cancellation — discards the state, and the
// run's next job builds a fresh one, so newState must return a state
// from which every job is correct. Every per-job contract of Map holds:
// results in job order, labels, panic capture, the Timeout, the ctx
// check before each job, and one OnDone per job whose Wall is that
// job's own time, including any state build it triggered.
func MapRuns[T, S, R any](ctx context.Context, jobs []T, newState func() (S, error),
	fn func(ctx context.Context, st S, job T) (R, error), opts Options) []Result[R] {

	p := newPool[T, R](ctx, jobs, opts)
	n := len(jobs)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		lo, hi := w*n/p.workers, (w+1)*n/p.workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				st   S
				have bool
			)
			for i := lo; i < hi; i++ {
				cur, ok := st, have
				err := p.do(i, func(ctx context.Context, job T) (R, error) {
					if !ok {
						s, err := newState()
						if err != nil {
							var zero R
							return zero, err
						}
						cur, ok = s, true
					}
					return fn(ctx, cur, job)
				})
				if err != nil {
					// A timed-out job may still be running on cur:
					// neither read it nor keep it.
					var zero S
					st, have = zero, false
					continue
				}
				st, have = cur, ok
			}
		}()
	}
	wg.Wait()
	return p.results
}

// pool is the state one Map or MapRuns call shares across its workers.
type pool[T, R any] struct {
	ctx     context.Context
	jobs    []T
	results []Result[R]
	opts    Options
	label   func(i int) string
	workers int        // goroutines to start: min(Workers, len(jobs))
	doneMu  sync.Mutex // serializes OnDone
}

func newPool[T, R any](ctx context.Context, jobs []T, opts Options) *pool[T, R] {
	p := &pool[T, R]{ctx: ctx, jobs: jobs, results: make([]Result[R], len(jobs)),
		opts: opts, label: opts.Label, workers: opts.Workers}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	p.workers = min(p.workers, len(jobs))
	if p.label == nil {
		p.label = func(i int) string { return fmt.Sprintf("cell %d", i) }
	}
	return p
}

// do runs job i through fn, records its result, reports its progress,
// and returns its error.
func (p *pool[T, R]) do(i int, fn func(ctx context.Context, job T) (R, error)) error {
	r := Result[R]{Label: p.label(i)}
	start := time.Now()
	if err := p.ctx.Err(); err != nil {
		r.Err = fmt.Errorf("runner: cell %s not started: %w", r.Label, err)
	} else {
		r.Value, r.Err = runCell(p.ctx, p.jobs[i], fn, r.Label, p.opts.Timeout)
	}
	r.Wall = time.Since(start)
	p.results[i] = r
	if p.opts.OnDone != nil {
		p.doneMu.Lock()
		p.opts.OnDone(Progress{Label: r.Label, Index: i, Total: len(p.jobs), Wall: r.Wall, Err: r.Err})
		p.doneMu.Unlock()
	}
	return r.Err
}

// MapValues is Map for callers that only need the values: it unwraps
// the results and returns the first error in submission order — the
// same cell the sequential loop would have reported — with every value
// before it filled in.
func MapValues[T, R any](ctx context.Context, jobs []T, fn func(ctx context.Context, job T) (R, error), opts Options) ([]R, error) {
	rs := Map(ctx, jobs, fn, opts)
	out := make([]R, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return out, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}

// runCell invokes one cell with panic capture and, when a deadline or
// cancellable context is in play, a watchdog that lets the worker move
// on from a cell that never returns.
func runCell[T, R any](ctx context.Context, job T, fn func(ctx context.Context, job T) (R, error), label string, timeout time.Duration) (R, error) {
	if timeout <= 0 && ctx.Done() == nil {
		return call(ctx, job, fn, label)
	}
	cctx := ctx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	type outcome struct {
		v   R
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := call(cctx, job, fn, label)
		done <- outcome{v, err}
	}()
	// Prefer a completed cell over a concurrent cancellation: its result
	// is already computed and deterministic.
	select {
	case o := <-done:
		return o.v, o.err
	default:
	}
	select {
	case o := <-done:
		return o.v, o.err
	case <-cctx.Done():
		var zero R
		return zero, fmt.Errorf("runner: cell %s: %w", label, cctx.Err())
	}
}

// call invokes fn, converting a panic into a PanicError.
func call[T, R any](ctx context.Context, job T, fn func(ctx context.Context, job T) (R, error), label string) (v R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Label: label, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, job)
}
