// Package crash injects power failures into a simulated run and checks
// whether the persistent state recovers consistently — the paper's central
// correctness claim, exercised functionally.
//
// A crash at instant T leaves NVM holding exactly the device writes that
// completed by T, plus the ADR drain of the write queues (§5.2.2: only
// ready entries drain). Volatile state — caches, the dirty counter cache,
// writes still awaiting queue acceptance — is lost. Recovery then does
// what real firmware would do: decrypt every data line with the counter
// found in NVM (garbage if data and counter are out of sync, Eq. 4), run
// the undo-log recovery, and validate the workload's structural
// invariants.
//
// Sweeps and campaigns build each crash image without changing the
// machine: Image().SnapshotWritesAt(T) with the controller's ADROverlay(T)
// laid over it. A machine can therefore stop at one crash instant,
// be judged, and replay on to the next. Each worker owns one machine and
// a contiguous run of ascending crash instants, so it replays the trace
// at most once, however many points it checks. InjectAt keeps the
// single-shot path — a fresh machine, RunUntil, then the mutating,
// terminal DrainADR — which the one-pass walk is tested against.
//
// Designs with counter-atomicity (FCA, SCA, the co-located pair) must
// survive every crash point; the Ideal design — counter-mode encryption
// with no counter-atomicity — demonstrably does not.
package crash

import (
	"context"
	"fmt"
	"sync/atomic"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/runner"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// DefaultArena is the per-core arena used by the harness.
const DefaultArena = 64 << 20

// CheckArenas rejects a machine too small for the harness: every core's
// DefaultArena must lie in the data region. On a smaller machine the
// arenas overlap the counter region, which recovery never decrypts, so
// a run would validate an empty image and a crash sweep would report
// harness errors as violations. Every CLI calls it before running.
func CheckArenas(cfg *config.Config) error {
	last := persist.ArenaFor(cfg.NumCores-1, DefaultArena)
	if err := mem.NewLayout(cfg.MemoryBytes).Validate(last.End() - 1); err != nil {
		return fmt.Errorf("crash: memory_bytes %d cannot hold %d core arena(s) of %d bytes: %w",
			cfg.MemoryBytes, cfg.NumCores, DefaultArena, err)
	}
	return nil
}

// Result is the outcome of one crash injection. The JSON shape is part
// of the campaign report format; every count is meaningful (and emitted
// as an explicit zero) in every sweep mode.
type Result struct {
	CrashAt          sim.Time     `json:"crash_at"`
	LostCounterLines int          `json:"lost_counter_lines"` // dirty counter-cache lines lost at the crash
	RecoveredEntries int          `json:"recovered_entries"`  // undo-log entries rolled back
	CorruptLog       int          `json:"corrupt_log"`        // log entries rejected as garbage
	Osiris           RecoveryCost `json:"osiris"`             // firmware recovery work (Osiris candidate search; BMT root-walk verification)
	Err              error        `json:"-"`                  // non-nil: recovery produced an inconsistent state
	// Error mirrors Err for the wire: error values do not round-trip
	// JSON, strings do. Omitted when recovery was consistent.
	Error string `json:"error,omitempty"`
}

// Consistent reports whether recovery succeeded. It consults both error
// carriers so a Result decoded from a checkpoint (Err necessarily nil)
// judges the same as the Result the injection produced.
func (r Result) Consistent() bool { return r.Err == nil && r.Error == "" }

// Sweep modes, recorded in Report.Mode.
const (
	// ModeGrid is the legacy sweep: n+1 instants spread evenly over the
	// execution window, unrelated to op boundaries.
	ModeGrid = "grid"
	// ModeExhaustive simulates every per-op crash gap.
	ModeExhaustive = "exhaustive"
	// ModePruned simulates one representative per equivalence cell and
	// attributes its verdict to the whole cell.
	ModePruned = "pruned"
)

// Report summarizes a crash-point sweep.
//
// The counting fields are explicit (no omitempty) on purpose: a grid or
// exhaustive report writes literal zeros for the pruning fields rather
// than omitting them, so "this mode prunes nothing" and "this report
// predates pruning" are distinguishable on the wire.
type Report struct {
	Design   config.Design `json:"design"`
	Workload string        `json:"workload"`
	// Mode is how the crash-point space was enumerated: ModeGrid,
	// ModeExhaustive, or ModePruned.
	Mode string `json:"mode"`
	// CrashPoints is the size of the covered crash-point space: grid
	// points for ModeGrid, per-op gaps (ops+1) otherwise. Always set.
	CrashPoints int `json:"crash_points"`
	// Simulated counts injections actually run, including validation
	// members. Equals CrashPoints except in ModePruned. Always set.
	Simulated int `json:"simulated"`
	// Classes and Cells describe the partition in ModeExhaustive and
	// ModePruned: static equivalence classes, and classes after
	// epoch-timeline refinement (the unit actually simulated). Both are
	// deliberate zeros in ModeGrid, which has no partition.
	Classes int `json:"classes"`
	Cells   int `json:"cells"`
	// Pruned counts crash points covered without simulation, and
	// PrunedFraction is Pruned/CrashPoints. Deliberate zeros outside
	// ModePruned: grid and exhaustive sweeps simulate everything.
	Pruned         int     `json:"pruned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	// Validated counts extra non-representative members simulated by
	// class validation. Deliberate zero unless validation ran.
	Validated int      `json:"validated"`
	Results   []Result `json:"results,omitempty"`
}

// Failures returns the inconsistent results.
func (r Report) Failures() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Consistent() {
			out = append(out, res)
		}
	}
	return out
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%-22s %-10s crash points: %3d, inconsistent: %d",
		r.Design, r.Workload, len(r.Results), len(r.Failures()))
}

// BuildTraces runs the workload functionally on each core's runtime and
// returns the per-core traces. Core i uses arena i and seed p.Seed+i.
func BuildTraces(w workloads.Workload, p workloads.Params, cores int) []*trace.Trace {
	defer perf.Begin("trace-build").End()
	traces := make([]*trace.Trace, cores)
	for i := 0; i < cores; i++ {
		pc := p
		pc.Seed = p.Seed + int64(i)
		rt := persist.NewRuntime(persist.ArenaFor(i, DefaultArena))
		rt.SetLegacy(p.Legacy)
		rt.SetTxMode(p.TxMode)
		w.Setup(rt, pc)
		w.Run(rt, pc)
		traces[i] = rt.Trace()
	}
	return traces
}

// RecordTraces builds the workload's per-core traces exactly like
// BuildTraces and serializes them to path in the binary trace format
// (trace.WriteTracesFile). Trace generation is deterministic in
// (workload, params, cores), so a recorded file replays byte-identically
// to an in-process build.
func RecordTraces(w workloads.Workload, p workloads.Params, cores int, path string) error {
	return trace.WriteTracesFile(path, BuildTraces(w, p, cores))
}

// DecryptImage reconstructs the plaintext view of a post-crash NVM
// snapshot, decrypting every data line with the counter present in the
// snapshot's counter region — stale or missing counters yield garbage,
// exactly as on real hardware. A nil encryption engine (plaintext design)
// copies lines verbatim.
func DecryptImage(lay mem.Layout, enc *ctrenc.Engine,
	snapshot map[mem.Addr]mem.Line) *mem.Space {

	space := mem.NewSpace()
	for addr, ct := range snapshot {
		if !lay.IsData(addr) {
			continue
		}
		if enc == nil {
			space.WriteLine(addr, ct)
			continue
		}
		var ctr uint64
		if cl, ok := snapshot[lay.CounterLine(addr)]; ok {
			ctr = ctrenc.UnpackCounterLine(cl)[lay.CounterSlot(addr)]
		}
		space.WriteLine(addr, enc.Decrypt(ct, addr, ctr))
	}
	return space
}

// RecoveryCost quantifies a metadata engine's recovery work — nonzero
// only for checksum-recovery engines (Osiris), whose candidate-search
// cost is the dimension the Anubis follow-on optimizes.
type RecoveryCost = machine.RecoveryCost

// decryptOracle decrypts a post-crash snapshot using the ground-truth
// counter recorded with each write — what the firmware would see if data
// and counter had been perfectly atomic. The harness compares real
// recovery against it to detect silent total loss.
func decryptOracle(lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) *mem.Space {

	space := mem.NewSpace()
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		if enc == nil {
			space.WriteLine(addr, w.Data)
			continue
		}
		space.WriteLine(addr, enc.Decrypt(w.Data, addr, w.Tag))
	}
	return space
}

// InjectAt builds a fresh machine from spec over the given traces,
// crashes it at the given instant, and runs recovery plus validation for
// every core's arena — the single-shot reference path the one-pass
// sweeps are tested against.
func InjectAt(spec *machine.Spec, w workloads.Workload, traces []*trace.Trace,
	at sim.Time) (Result, error) {

	sys, err := replay.NewSpecSources(spec, trace.Sources(traces))
	if err != nil {
		return Result{}, err
	}
	return injectSys(sys, w, traces, at)
}

// injectSys crashes an unstarted system at the given instant, drains
// the ADR domain into its image (terminal: the system is spent), and
// judges the result.
func injectSys(sys *replay.System, w workloads.Workload, traces []*trace.Trace,
	at sim.Time) (Result, error) {

	rr := perf.Begin("replay")
	t := sys.RunUntil(at)
	rr.End()
	rs := perf.Begin("snapshot")
	sys.MC.DrainADR(t)
	writes := sys.Dev.Image().SnapshotWritesAt(t)
	rs.End()
	return judge(sys, w, traces, t, writes)
}

// walker is one worker's machine in a one-pass sweep: it replays the
// traces forward once, stopping at each crash deadline in ascending
// order, and builds each crash image without changing the machine.
type walker struct {
	sys    *replay.System
	w      workloads.Workload
	traces []*trace.Trace
	events *atomic.Uint64 // replay events, summed over a sweep's walkers
}

// injectAt advances the replay to at — which must not precede the
// previous deadline — and judges a power failure there: the device
// writes completed by t with the ADR overlay laid over them.
func (wk *walker) injectAt(at sim.Time) (Result, error) {
	rr := perf.Begin("replay")
	before := wk.sys.Eng.Steps()
	t := wk.sys.RunUntil(at)
	wk.events.Add(wk.sys.Eng.Steps() - before)
	rr.End()
	rs := perf.Begin("snapshot")
	writes := wk.sys.Dev.Image().SnapshotWritesAt(t)
	for _, wr := range wk.sys.MC.ADROverlay(t) {
		writes[wr.Line] = wr
	}
	rs.End()
	return judge(wk.sys, wk.w, wk.traces, t, writes)
}

// walk injects at every deadline with one machine per worker: the
// jobs, whose deadlines ascend in job order, are split into contiguous
// runs, and each run's machine replays the traces at most once
// (runner.MapRuns). job(wk, j) produces job j's value, injecting at its
// own deadlines in ascending order. Results are in job order and
// identical for every worker count, because a crash image depends only
// on its instant. walk also returns the replay events its machines
// executed.
func walk[T, R any](ctx context.Context, jobs []T, build func() (*replay.System, error),
	w workloads.Workload, traces []*trace.Trace,
	job func(wk *walker, j T) (R, error), opts runner.Options) ([]runner.Result[R], uint64) {

	var events atomic.Uint64
	rs := runner.MapRuns(ctx, jobs,
		func() (*walker, error) {
			sys, err := build()
			if err != nil {
				return nil, err
			}
			return &walker{sys: sys, w: w, traces: traces, events: &events}, nil
		},
		func(_ context.Context, wk *walker, j T) (R, error) { return job(wk, j) },
		opts)
	return rs, events.Load()
}

// judge runs the design's recovery — delegated to the machine's
// metadata engine — over the crash image writes taken at t, plus
// validation for every core's arena. It only reads sys.
func judge(sys *replay.System, w workloads.Workload, traces []*trace.Trace,
	t sim.Time, writes map[mem.Addr]mem.Write) (Result, error) {

	res := Result{
		CrashAt:          t,
		LostCounterLines: len(sys.MC.DirtyCounterLines()),
	}
	rc := perf.Begin("recover")
	var space *mem.Space
	space, res.Osiris = sys.Meta.Recover(sys.Cfg, sys.MC.Layout(), sys.MC.Encryption(), writes)
	oracle := decryptOracle(sys.MC.Layout(), sys.MC.Encryption(), writes)
	rc.End()

	rv := perf.Begin("verify")
	defer rv.End()
	for i := range traces {
		arena := persist.ArenaFor(i, DefaultArena)
		rep := persist.Recover(space, arena)
		res.RecoveredEntries += rep.ValidEntries
		res.CorruptLog += rep.Corrupt

		// The oracle is what a perfectly counter-atomic system would
		// recover; it must always be consistent, or the harness itself
		// is broken.
		persist.Recover(oracle, arena)
		if err := w.Validate(oracle, arena); err != nil {
			return res, fmt.Errorf("crash: oracle inconsistent at %v: %w", t, err)
		}

		switch err := w.Validate(space, arena); {
		case err != nil:
			res.Err = fmt.Errorf("core %d: %w", i, err)
		case w.Published(oracle, arena) && !w.Published(space, arena):
			// The structure was persistently published, but the real
			// decryption lost it entirely — silent catastrophic loss,
			// which a structural validator alone cannot see.
			res.Err = fmt.Errorf("core %d: published structure unreadable after crash (counters lost)", i)
		}
		if res.Err != nil {
			break
		}
	}
	if res.Err != nil {
		res.Error = res.Err.Error()
	}
	return res, nil
}

// Sweep crashes the workload at n+1 points spread evenly over its
// execution window on the machine spec describes, and reports every
// outcome. The window is discovered with one uncrashed probe run over
// the same traces. The crash points are split into one contiguous run
// per worker (workers <= 0 uses GOMAXPROCS, 1 is the sequential loop),
// and each worker's machine — built from the read-only spec, since
// simulation instances are not goroutine-safe — replays the shared
// traces once, stopping at each of its points in turn. Results are
// collected in crash-point order, so the report is identical for every
// degree. onDone, when non-nil, receives each point's completion
// (runner.Options.OnDone) for progress or fleet statistics.
func Sweep(spec *machine.Spec, w workloads.Workload, p workloads.Params,
	n, workers int, onDone func(runner.Progress)) (Report, error) {

	if n < 0 {
		return Report{}, fmt.Errorf("crash: %d crash points (want n >= 0)", n)
	}
	cfg, err := spec.Config()
	if err != nil {
		return Report{}, err
	}
	traces := BuildTraces(w, p, cfg.NumCores)
	build := func() (*replay.System, error) { return replay.NewSpecSources(spec, trace.Sources(traces)) }
	rep := Report{Design: cfg.Design, Workload: w.Name(), Mode: ModeGrid}
	probe, err := build()
	if err != nil {
		return rep, err
	}
	end := probe.Run()
	if end == 0 {
		return rep, fmt.Errorf("crash: empty run")
	}

	// Skew towards the tail where commits and counter evictions cluster,
	// but cover the whole run including t=0 and always the final instant.
	points := make([]sim.Time, 0, n+1)
	for i := 0; i < n; i++ {
		points = append(points, sim.Time(uint64(end)*uint64(i)/uint64(n)))
	}
	points = append(points, end)

	rs, _ := walk(context.Background(), points, build, w, traces,
		func(wk *walker, at sim.Time) (Result, error) { return wk.injectAt(at) },
		runner.Options{Workers: workers, OnDone: onDone, Label: func(i int) string {
			return fmt.Sprintf("sweep/%s/%s/point%d", probe.Spec.Name, w.Name(), i)
		}})
	for _, r := range rs {
		if r.Err != nil {
			// Match the sequential contract: the report carries the
			// results before the first failing point, plus its error.
			return rep, r.Err
		}
		rep.Results = append(rep.Results, r.Value)
	}
	rep.CrashPoints = len(rep.Results)
	rep.Simulated = len(rep.Results)
	return rep, nil
}
