// Package core is the library facade: it wires a workload, a design and a
// configuration into a full simulated system — software runtime, cores,
// caches, encrypted memory controller, PCM device — runs it, and returns
// the measurements the paper's figures are built from. It also fronts the
// crash-injection harness.
//
// Typical use:
//
//	res, err := core.RunWorkload(core.Options{
//	        Design:   config.SCA,
//	        Workload: "btree",
//	        Cores:    4,
//	})
//	fmt.Println(res.Runtime, res.Throughput)
package core

import (
	"fmt"

	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/probe"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Options selects what to simulate. Exactly one machine source applies:
// Spec, Config, or the Design/Cores pair (in that precedence); supplying
// conflicting sources is an error, never a silent override.
type Options struct {
	Design   config.Design
	Workload string // one of workloads.Names()
	Cores    int    // default 1
	Params   workloads.Params
	// Spec selects a declarative machine description when non-nil —
	// the path that reaches custom sizings and non-PCM backends.
	// Design, Cores, and Config must be left zero with it.
	Spec *machine.Spec
	// Config overrides the derived configuration entirely when non-nil
	// (used by the sensitivity sweeps, which mutate fields a spec does
	// not carry). Design and Cores, if also set, must agree with it.
	Config *config.Config
	// Probe, when non-nil, attaches the observability layer (timeline,
	// windowed metrics) to the run. The caller owns Probe.Close.
	Probe *probe.Probe
}

// build resolves the options to a workload plus exactly one machine
// source: a spec (preferred when set) or a configuration.
func (o Options) build() (*machine.Spec, *config.Config, workloads.Workload, error) {
	w, err := workloads.ByName(o.Workload)
	if err != nil {
		return nil, nil, nil, err
	}
	if o.Spec != nil {
		if o.Config != nil {
			return nil, nil, nil, fmt.Errorf("core: Options.Spec and Options.Config are mutually exclusive")
		}
		if o.Design != 0 || o.Cores != 0 {
			return nil, nil, nil, fmt.Errorf("core: Options.Design/Cores must be zero when Spec is set (got %v, %d)",
				o.Design, o.Cores)
		}
		cfg, err := o.Spec.Config()
		if err != nil {
			return nil, nil, nil, err
		}
		return o.Spec, cfg, w, nil
	}
	if cfg := o.Config; cfg != nil {
		// A Config override wins, but a contradictory Design/Cores next
		// to it used to be silently ignored — now it is an error. (The
		// zero Design is NoEncryption, so a zero value cannot be told
		// apart from "unset" and is not checked against the override.)
		if o.Design != 0 && o.Design != cfg.Design {
			return nil, nil, nil, fmt.Errorf("core: Options.Design (%v) contradicts Options.Config.Design (%v)",
				o.Design, cfg.Design)
		}
		if o.Cores != 0 && o.Cores != cfg.NumCores {
			return nil, nil, nil, fmt.Errorf("core: Options.Cores (%d) contradicts Options.Config.NumCores (%d)",
				o.Cores, cfg.NumCores)
		}
		return nil, cfg, w, nil
	}
	cores := o.Cores
	if cores == 0 {
		cores = 1
	}
	return nil, config.Default(o.Design).WithCores(cores), w, nil
}

// Result carries the measurements of one run.
type Result struct {
	Design       config.Design
	Workload     string
	Cores        int
	Runtime      sim.Time // measured (transaction-phase) runtime
	TotalRuntime sim.Time // including the setup phase
	Transactions int
	Throughput   float64 // transactions per simulated second
	BytesWritten uint64  // NVM write traffic, data + counters
	Stats        *stats.Stats
	System       *replay.System // post-run system, for deeper inspection
}

// RunWorkload generates the workload's traces and replays them under the
// selected machine (spec, config override, or design defaults).
func RunWorkload(o Options) (Result, error) {
	spec, cfg, w, err := o.build()
	if err != nil {
		return Result{}, err
	}
	traces := crash.BuildTraces(w, o.Params.WithDefaults(), cfg.NumCores)
	if spec != nil {
		return RunSpecTracesObserved(spec, w.Name(), traces, o.Probe)
	}
	return RunTracesObserved(cfg, w.Name(), traces, o.Probe)
}

// RunTraces replays pre-built traces under the given configuration. Using
// the same traces across designs gives the controlled comparison the
// paper's figures rely on.
func RunTraces(cfg *config.Config, workload string, traces []*trace.Trace) (Result, error) {
	return RunTracesObserved(cfg, workload, traces, nil)
}

// RunTracesObserved is RunTraces with an observability probe attached to
// the system for the duration of the run (nil probe means no observation).
// The caller finalizes the probe with Close after inspecting the result.
func RunTracesObserved(cfg *config.Config, workload string, traces []*trace.Trace, pb *probe.Probe) (Result, error) {
	sys, err := replay.New(cfg, traces)
	if err != nil {
		return Result{}, err
	}
	return runSystem(sys, workload, pb)
}

// RunSpecTracesObserved replays pre-built traces on the machine a
// declarative spec describes, with an observability probe attached (nil
// probe means no observation).
func RunSpecTracesObserved(spec *machine.Spec, workload string, traces []*trace.Trace, pb *probe.Probe) (Result, error) {
	sys, err := replay.NewSpec(spec, traces)
	if err != nil {
		return Result{}, err
	}
	return runSystem(sys, workload, pb)
}

// RunSpecSourcesObserved replays trace cursors on the machine a
// declarative spec describes — the streaming sibling of
// RunSpecTracesObserved.
func RunSpecSourcesObserved(spec *machine.Spec, workload string, srcs []trace.Source, pb *probe.Probe) (Result, error) {
	sys, err := replay.NewSpecSources(spec, srcs)
	if err != nil {
		return Result{}, err
	}
	return runSystem(sys, workload, pb)
}

// runSystem drives an assembled system to completion and collects the
// measurements.
func runSystem(sys *replay.System, workload string, pb *probe.Probe) (Result, error) {
	// Timing-only runs need no per-write history; dropping it bounds
	// memory on publication-scale sweeps.
	sys.Dev.Image().SetRetainLog(false)
	sys.AttachProbe(pb)
	r := perf.Begin("replay")
	rt := sys.Run()
	r.End()
	return Result{
		Design:       sys.Cfg.Design,
		Workload:     workload,
		Cores:        sys.Cfg.NumCores,
		Runtime:      sys.MeasuredRuntime(),
		TotalRuntime: rt,
		Transactions: sys.Transactions(),
		Throughput:   sys.Throughput(),
		BytesWritten: sys.St.TotalBytesWritten(),
		Stats:        sys.St,
		System:       sys,
	}, nil
}

// VerifyResult runs the workload's validator over the final (decrypted)
// NVM image of a completed run — an end-to-end functional check that the
// whole stack (encryption, queues, flush) preserved the data.
func VerifyResult(res Result) error {
	defer perf.Begin("verify").End()
	w, err := workloads.ByName(res.Workload)
	if err != nil {
		return err
	}
	sys := res.System
	if sys == nil {
		return fmt.Errorf("core: result carries no system")
	}
	snapshot := sys.Dev.Image().SnapshotAt(sys.Dev.Image().LastWrite())
	space := crash.DecryptImage(sys.MC.Layout(), sys.MC.Encryption(), snapshot)
	for i := 0; i < res.Cores; i++ {
		if err := w.Validate(space, persist.ArenaFor(i, crash.DefaultArena)); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// CrashSweep injects n+1 crashes across the workload's execution under
// the selected machine and reports recovery outcomes.
func CrashSweep(o Options, points int) (crash.Report, error) {
	spec, cfg, w, err := o.build()
	if err != nil {
		return crash.Report{}, err
	}
	if spec != nil {
		return crash.SweepSpecJ(spec, w, o.Params.WithDefaults(), points, 0)
	}
	return crash.Sweep(cfg, w, o.Params.WithDefaults(), points)
}
