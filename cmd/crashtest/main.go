// Command crashtest sweeps power-failure injections across a workload's
// execution and reports whether recovery restores a consistent state —
// the paper's crash-consistency claims, checked functionally.
//
// Usage:
//
//	crashtest [-design sca] [-workload all] [-points 32] [-legacy] [-cores 1] [-j N]
//	crashtest -spec machine.json [-workload all] ...
//	crashtest -campaign [-exhaustive] [-validate-classes K] [-checkpoint f.jsonl] [-resume]
//	crashtest -schedule counterexample.json
//
// Sweeps fan out over -j workers (default GOMAXPROCS). Each worker takes
// a contiguous run of the ascending crash points and one machine, which
// replays the shared read-only traces once and is judged at each of its
// points on the way; the report is identical for every -j.
//
// With -campaign the sweep covers the per-op crash-point space (every
// gap between retired ops) instead of the evenly-spaced grid, pruned by
// the static crash-equivalence partition unless -exhaustive: only one
// representative per epoch-refined class is simulated and its verdict
// attributed to the whole class. -validate-classes K re-simulates up to
// K non-representative members per class and fails on divergence.
// -checkpoint streams per-class verdicts to a JSONL file as they
// complete; a killed campaign restarts from it with -resume instead of
// re-simulating. -campaign-out writes the schema-tagged JSON campaign
// report.
//
// With -legacy the workload uses pre-paper persistency primitives (no
// counter_cache_writeback, no CounterAtomic), reproducing the §2.2
// motivating failure on any encrypted design.
//
// With -schedule, a counterexample file written by `persistcheck
// -verify` (or the verifier's cross-validation suite) is replayed
// functionally: the workload trace is rebuilt deterministically from the
// recorded parameters, the optional catalog mutant applied, the exact
// crash-point image constructed, and recovery plus validation run.
//
// Exit status, in every mode: 0 every crash point recovered
// consistently (for -schedule: the predicted failure reproduced), 1
// violations (for -schedule: the failure did not reproduce), 2 usage or
// I/O error, 3 campaign halted by -halt-after (checkpoint intact).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"encnvm/internal/check"
	"encnvm/internal/check/verify"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

func main() {
	design := flag.String("design", "sca", "registered machine: "+strings.Join(machine.Names(), "|"))
	specPath := flag.String("spec", "", "load a declarative machine spec from this JSON file (overrides -design/-cores)")
	workload := flag.String("workload", "all", "workload or 'all': "+strings.Join(append(workloads.Names(), "linkedlist"), "|"))
	points := flag.Int("points", 32, "crash points per sweep")
	legacy := flag.Bool("legacy", false, "use pre-paper (legacy) persistency primitives")
	cores := flag.Int("cores", 1, "number of cores")
	items := flag.Int("items", 128, "initial structure population")
	ops := flag.Int("ops", 48, "operations per core")
	seed := flag.Int64("seed", 42, "workload RNG seed")
	jobs := flag.Int("j", 0, "workers, each replaying once through a contiguous run of crash points; <= 0 means GOMAXPROCS")
	campaign := flag.Bool("campaign", false, "sweep the per-op crash-point space (class-pruned; see -exhaustive)")
	exhaustive := flag.Bool("exhaustive", false, "campaign: simulate every gap instead of class representatives")
	validateClasses := flag.Int("validate-classes", 0, "campaign: re-simulate up to K members per class, fail on divergence")
	validateSeed := flag.Int64("validate-seed", 1, "campaign: member-sampling seed")
	checkpoint := flag.String("checkpoint", "", "campaign: stream per-class verdicts to this JSONL file")
	checkpointEvery := flag.Int("checkpoint-every", 1, "campaign: flush the checkpoint after this many classes")
	resume := flag.Bool("resume", false, "campaign: resume from -checkpoint, skipping completed classes")
	campaignOut := flag.String("campaign-out", "", "campaign: write the JSON campaign report here ('-' for stdout)")
	haltAfter := flag.Int("halt-after", 0, "campaign: halt after N newly simulated classes (exit 3; kill/resume testing)")
	schedule := flag.String("schedule", "", "replay a verifier counterexample file and exit")
	version := flag.Bool("version", false, "print build/version information and exit")
	perfOpts := perf.RegisterFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `Usage:
  crashtest [-design sca] [-workload all] [-points 32] [-legacy] [-cores 1] [-j N]
  crashtest -spec machine.json [-workload all] ...
  crashtest -campaign [-exhaustive] [-validate-classes K] [-checkpoint f.jsonl] [-resume]
  crashtest -schedule counterexample.json

Exit status (every mode):
  0  every crash point recovered consistently (-schedule: predicted failure reproduced)
  1  violations found (-schedule: failure did not reproduce)
  2  usage or I/O error
  3  campaign halted by -halt-after (checkpoint intact)

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		perf.PrintVersion(os.Stdout, "crashtest")
		return
	}
	if *schedule != "" {
		os.Exit(replaySchedule(*schedule))
	}
	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "crashtest: -cores %d: need at least one core\n", *cores)
		os.Exit(2)
	}
	if *points < 0 {
		fmt.Fprintf(os.Stderr, "crashtest: -points %d: need a point count >= 0\n", *points)
		os.Exit(2)
	}
	session, err := perfOpts.Begin("crashtest", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var spec *machine.Spec
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec, err = machine.DecodeSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		var err error
		spec, err = machine.ByName(*design)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unknown design %q (valid: %s)\n",
				*design, strings.Join(machine.Names(), "|"))
			os.Exit(2)
		}
		spec.Cores = *cores
	}
	cfg, err := spec.Config()
	if err == nil {
		err = crash.CheckArenas(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var targets []workloads.Workload
	if *workload == "all" {
		targets = workloads.Extended()
	} else {
		w, err := workloads.ByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		targets = []workloads.Workload{w}
	}

	if !*campaign && (*exhaustive || *validateClasses > 0 || *checkpoint != "" ||
		*resume || *campaignOut != "" || *haltAfter > 0) {
		fmt.Fprintln(os.Stderr, "crashtest: campaign flags need -campaign")
		os.Exit(2)
	}
	if len(targets) > 1 && (*checkpoint != "" || *campaignOut != "") {
		fmt.Fprintln(os.Stderr, "crashtest: -checkpoint/-campaign-out cover one campaign; pick a single -workload")
		os.Exit(2)
	}

	p := workloads.Params{Seed: *seed, Items: *items, Ops: *ops, Legacy: *legacy}
	if *jobs > 0 {
		session.SetWorkers(*jobs)
	} else {
		session.SetWorkers(runtime.GOMAXPROCS(0))
	}
	anyFail := false
	for _, w := range targets {
		var rep crash.Report
		var err error
		if *campaign {
			copts := crash.CampaignOptions{
				Workers:         *jobs,
				Pruned:          !*exhaustive,
				ValidateMembers: *validateClasses,
				ValidateSeed:    *validateSeed,
				CheckpointPath:  *checkpoint,
				CheckpointEvery: *checkpointEvery,
				Resume:          *resume,
				HaltAfter:       *haltAfter,
				OnDone:          session.RunnerSink(nil),
			}
			start := time.Now()
			run, rerr := crash.RunCampaign(spec, w, p, copts)
			if errors.Is(rerr, crash.ErrCampaignHalted) {
				fmt.Fprintln(os.Stderr, rerr)
				session.End()
				os.Exit(3)
			}
			if rerr != nil {
				fmt.Fprintln(os.Stderr, rerr)
				os.Exit(1)
			}
			run.Campaign.WallMS = time.Since(start).Milliseconds()
			rep = run.Report
			fmt.Printf("%v  classes: %d, cells: %d, simulated: %d, pruned: %d (%.1f%%)\n",
				rep, rep.Classes, rep.Cells, rep.Simulated, rep.Pruned, 100*rep.PrunedFraction)
			if err := writeCampaignReport(*campaignOut, &run.Campaign); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		} else {
			rep, err = crash.Sweep(spec, w, p, *points, *jobs, session.RunnerSink(nil))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(rep)
		}
		for _, f := range rep.Failures() {
			anyFail = true
			fmt.Printf("  crash at %10.1f ns: %s (lost counter lines: %d)\n",
				f.CrashAt.Nanoseconds(), f.Error, f.LostCounterLines)
		}
	}
	if err := session.End(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if anyFail {
		os.Exit(1)
	}
	fmt.Println("every crash point recovered consistently")
}

// writeCampaignReport emits the schema-tagged campaign report to the
// given path ("-" for stdout, "" for nowhere).
func writeCampaignReport(path string, camp *crash.CampaignReport) error {
	if path == "" {
		return nil
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(camp)
}

// replaySchedule rebuilds the trace a counterexample file describes and
// replays its crash schedule, returning the process exit code.
func replaySchedule(path string) int {
	f, err := verify.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		return 2
	}
	w, err := workloads.ByName(f.Workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		return 2
	}
	mode := persist.Undo
	if f.TxMode == "redo" {
		mode = persist.Redo
	} else if f.TxMode != "" && f.TxMode != "undo" {
		fmt.Fprintf(os.Stderr, "crashtest: unknown tx mode %q\n", f.TxMode)
		return 2
	}
	cores := f.Cores
	if cores == 0 {
		cores = 1
	}
	if f.Schedule.Core < 0 || f.Schedule.Core >= cores {
		fmt.Fprintf(os.Stderr, "crashtest: schedule core %d out of range (%d cores)\n",
			f.Schedule.Core, cores)
		return 2
	}
	p := workloads.Params{
		Seed: f.Seed, Items: f.Items, Ops: f.Ops, OpsPerTx: f.OpsPerTx,
		Legacy: f.Legacy, TxMode: mode,
	}
	tr := crash.BuildTraces(w, p, cores)[f.Schedule.Core]
	if f.Mutant != "" {
		m, err := check.MutantByName(tr, f.Mutant)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
			return 2
		}
		tr = m.Trace
	}
	arena := persist.ArenaFor(f.Schedule.Core, crash.DefaultArena)
	out, err := crash.ReplaySchedule(w, tr, arena, &f.Schedule)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		return 2
	}
	fmt.Printf("%s %s/%s: schedule %s\n", path, f.Workload, f.TxMode, &f.Schedule)
	fmt.Println(out)
	if !out.Reproduced {
		return 1
	}
	return 0
}
