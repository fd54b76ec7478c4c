// Package core is the library facade: it wires a workload and a machine
// spec into a full simulated system — software runtime, cores, caches,
// encrypted memory controller, PCM device — runs it, and returns the
// measurements the paper's figures are built from. It also fronts the
// crash-injection harness.
//
// Typical use:
//
//	res, err := core.RunWorkload(core.Options{
//	        Spec:     &machine.Spec{Engine: "sca", Cores: 4},
//	        Workload: "btree",
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

// Options selects what to simulate.
type Options struct {
	// Spec is the machine to run (machine.ByName for a registered one);
	// it is required.
	Spec     *machine.Spec
	Workload string // one of workloads.Names()
	Params   workloads.Params
	// Probe, when non-nil, attaches the observability layer (timeline,
	// windowed metrics) to the run. The caller owns Probe.Close.
	Probe *probe.Probe
}

// build resolves the options to the workload and the machine's core
// count.
func (o Options) build() (workloads.Workload, int, error) {
	if o.Spec == nil {
		return nil, 0, fmt.Errorf("core: Options.Spec is nil")
	}
	w, err := workloads.ByName(o.Workload)
	if err != nil {
		return nil, 0, err
	}
	cfg, err := o.Spec.Config()
	if err != nil {
		return nil, 0, err
	}
	return w, cfg.NumCores, nil
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

// RunWorkload generates the workload's traces and replays them on the
// machine o.Spec describes.
func RunWorkload(o Options) (Result, error) {
	w, cores, err := o.build()
	if err != nil {
		return Result{}, err
	}
	traces := crash.BuildTraces(w, o.Params.WithDefaults(), cores)
	return Run(o.Spec, w.Name(), trace.Sources(traces), o.Probe)
}

// Run replays trace cursors on the machine spec describes, with an
// observability probe attached for the duration of the run (nil probe
// means no observation; the caller finalizes it with Close after
// inspecting the result). Replaying the same traces on several specs
// gives the controlled comparison the paper's figures rely on.
func Run(spec *machine.Spec, workload string, srcs []trace.Source, pb *probe.Probe) (Result, error) {
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

// CrashSweep injects n+1 crashes across the workload's execution on the
// machine o.Spec describes and reports recovery outcomes.
func CrashSweep(o Options, points int) (crash.Report, error) {
	w, _, err := o.build()
	if err != nil {
		return crash.Report{}, err
	}
	return crash.Sweep(o.Spec, w, o.Params.WithDefaults(), points, 0, nil)
}
