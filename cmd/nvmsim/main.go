// Command nvmsim runs one workload under one memory-system design and
// prints the run's measurements and detailed statistics. With the
// observability flags it additionally emits a Perfetto timeline of the
// run, windowed JSONL metrics, and a machine-readable run manifest.
//
// Usage:
//
//	nvmsim [-design sca] [-workload btree] [-cores 1] [-items N] [-ops N]
//	       [-opspertx N] [-seed N] [-verify] [-stats] [-json]
//	       [-trace-out run.trace.json] [-metrics-out run.metrics.jsonl]
//	       [-metrics-window-ns 1000] [-manifest-out run.manifest.json]
//	nvmsim -spec machine.json [-workload btree] ...
//	nvmsim [-design sca | -spec machine.json] -dump-spec
//	nvmsim -record-trace run.bin [-workload btree] ...
//	nvmsim -replay-trace run.bin [-design sca] ...
//
// -design names a registered machine spec (the seven paper designs are
// built in); -spec loads a declarative machine spec from a JSON file
// instead. -dump-spec prints the fully resolved spec for the selected
// machine and exits — its output round-trips through -spec.
//
// -record-trace additionally serializes the workload's per-core traces
// to a binary trace file (the streaming IR) before the run; trace
// generation is deterministic, so the file replays byte-identically.
// -replay-trace skips workload generation entirely and replays a
// recorded file, decoding records in place — the two paths produce
// identical manifests for the same workload and parameters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// loadSpec resolves the machine spec the flags select: a JSON file when
// -spec is given, else the registered spec named by -design with the
// -cores override applied.
func loadSpec(specPath, design string, cores int) (*machine.Spec, error) {
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return machine.DecodeSpec(f)
	}
	spec, err := machine.ByName(design)
	if err != nil {
		return nil, fmt.Errorf("unknown design %q (valid: %s)", design,
			strings.Join(machine.Names(), "|"))
	}
	spec.Cores = cores
	return spec, nil
}

func main() {
	design := flag.String("design", "sca", "registered machine: "+strings.Join(machine.Names(), "|"))
	specPath := flag.String("spec", "", "load a declarative machine spec from this JSON file (overrides -design/-cores)")
	dumpSpec := flag.Bool("dump-spec", false, "print the resolved machine spec as JSON and exit")
	workload := flag.String("workload", "btree", "workload: "+strings.Join(workloads.ExtendedNames(), "|"))
	cores := flag.Int("cores", 1, "number of cores")
	items := flag.Int("items", 4096, "initial structure population")
	ops := flag.Int("ops", 256, "measured operations per core")
	opsPerTx := flag.Int("opspertx", 1, "operations per transaction")
	seed := flag.Int64("seed", 42, "workload RNG seed")
	verify := flag.Bool("verify", true, "validate the final NVM image end-to-end")
	showStats := flag.Bool("stats", false, "dump detailed statistics")
	jsonOut := flag.Bool("json", false, "print the run manifest as JSON on stdout instead of text")
	traceOut := flag.String("trace-out", "", "write a Perfetto/chrome://tracing timeline (simulated time) to this file")
	metricsOut := flag.String("metrics-out", "", "write windowed JSONL time-series metrics to this file")
	metricsWindowNS := flag.Uint64("metrics-window-ns", 1000, "metrics window length in simulated nanoseconds")
	manifestOut := flag.String("manifest-out", "", "write the machine-readable run manifest to this file")
	recordTrace := flag.String("record-trace", "", "serialize the workload's per-core traces to this binary trace file before running")
	replayTrace := flag.String("replay-trace", "", "replay a recorded binary trace file instead of generating the workload (-workload must name the recorded workload for -verify)")
	version := flag.Bool("version", false, "print build/version information and exit")
	perfOpts := perf.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		perf.PrintVersion(os.Stdout, "nvmsim")
		return
	}
	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "nvmsim: -cores %d: need at least one core\n", *cores)
		os.Exit(2)
	}
	session, err := perfOpts.Begin("nvmsim", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec, err := loadSpec(*specPath, *design, *cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dumpSpec {
		resolved, err := spec.Resolved()
		if err == nil {
			err = resolved.Encode(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	var readers []*trace.BinReader
	if *replayTrace != "" {
		if *recordTrace != "" {
			fmt.Fprintln(os.Stderr, "-record-trace and -replay-trace are mutually exclusive")
			os.Exit(2)
		}
		readers, err = trace.ReadTracesFile(*replayTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *specPath == "" {
			// The recorded file fixes the core count; the registered-spec
			// path adopts it so -cores need not be repeated at replay.
			spec.Cores = len(readers)
		}
	}
	cfg, err := spec.Config()
	if err == nil {
		err = crash.CheckArenas(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := workloads.ByName(*workload); err != nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (valid: %s)\n",
			*workload, strings.Join(workloads.ExtendedNames(), "|"))
		os.Exit(2)
	}

	var pb *probe.Probe
	var sinks []*os.File
	openSink := func(path string) io.Writer {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sinks = append(sinks, f)
		return f
	}
	if *traceOut != "" || *metricsOut != "" {
		pb = probe.New()
		if *traceOut != "" {
			pb.AttachTrace(openSink(*traceOut))
		}
		if *metricsOut != "" {
			pb.AttachMetrics(openSink(*metricsOut), sim.Time(*metricsWindowNS)*sim.Nanosecond)
		}
	}

	params := workloads.Params{
		Seed: *seed, Items: *items, Ops: *ops, OpsPerTx: *opsPerTx,
	}
	var res core.Result
	switch {
	case *replayTrace != "":
		res, err = core.Run(spec, *workload, trace.BinSources(readers), pb)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		if *recordTrace != "" {
			w, _ := workloads.ByName(*workload)
			if err := crash.RecordTraces(w, params.WithDefaults(), cfg.NumCores, *recordTrace); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		var err error
		res, err = core.RunWorkload(core.Options{
			Spec:     spec,
			Workload: *workload,
			Params:   params,
			Probe:    pb,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := pb.Close(res.System.Eng.Now()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range sinks {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *manifestOut != "" || *jsonOut {
		m := core.BuildManifest(res, params.WithDefaults())
		m.Host = hostBlock()
		if *manifestOut != "" {
			f, err := os.Create(*manifestOut)
			if err == nil {
				err = m.Encode(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *jsonOut {
			if err := m.Encode(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if !*jsonOut {
		fmt.Printf("design            %v\n", res.Design)
		fmt.Printf("workload          %s (%d cores)\n", res.Workload, res.Cores)
		fmt.Printf("transactions      %d\n", res.Transactions)
		fmt.Printf("measured runtime  %.1f us\n", res.Runtime.Nanoseconds()/1000)
		fmt.Printf("total runtime     %.1f us (incl. setup)\n", res.TotalRuntime.Nanoseconds()/1000)
		fmt.Printf("throughput        %.0f tx/s\n", res.Throughput)
		fmt.Printf("NVM bytes written %d\n", res.BytesWritten)
	}

	if *verify {
		if err := core.VerifyResult(res); err != nil {
			fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: %v\n", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Println("verification      final NVM image decrypts and validates OK")
		}
	}
	if *showStats && !*jsonOut {
		fmt.Println("\n--- statistics ---")
		fmt.Print(res.Stats.String())
	}
	if err := session.End(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// hostBlock stamps the manifest's optional provenance block from the
// running binary's build info.
func hostBlock() *probe.ManifestHost {
	b := perf.ReadBuild()
	return &probe.ManifestHost{
		GoVersion:   b.GoVersion,
		Module:      b.Module,
		Version:     b.Version,
		VCSRevision: b.VCSRevision,
		VCSTime:     b.VCSTime,
		VCSModified: b.VCSModified,
	}
}
