// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale quick|full] [-j N] [-progress file]
//	            [-figure all|table1|table2|fig4|fig8|fig12|fig13|fig14|fig15|fig16|fig17|lifetime|osiris|integrity]
//
// Each figure prints the same rows/series the paper reports, produced by
// this repository's simulator. See EXPERIMENTS.md for the expected shapes
// and the recorded full-scale results.
//
// Stdout carries only figure rows in simulated time, so it can be piped
// to golden files or statdiff; wall-clock timing lines and per-cell
// progress go to stderr (or the -progress file). -j sets how many
// simulation cells run concurrently (default GOMAXPROCS); the output is
// byte-identical for every -j value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"encnvm/internal/exp"
	"encnvm/internal/perf"
	"encnvm/internal/probe"
)

// figureRunners builds the ordered figure list writing to out. Every
// figure reads one session, so a cell several figures share is
// simulated once per invocation.
func figureRunners(sc exp.Scale, out io.Writer) []struct {
	name string
	fn   func() error
} {
	s := exp.NewSession(sc)
	return []struct {
		name string
		fn   func() error
	}{
		{"table2", func() error { return exp.Table2(out) }},
		{"table1", func() error { return exp.Table1(out) }},
		{"fig4", func() error { _, err := exp.Fig4(sc, out); return err }},
		{"fig8", func() error { _, err := exp.Fig8(out); return err }},
		{"fig12", func() error { _, err := s.Fig12(out); return err }},
		{"fig13", func() error { _, err := s.Fig13(out); return err }},
		{"fig14", func() error { _, err := s.Fig14(out); return err }},
		{"fig15", func() error { _, err := s.Fig15(out); return err }},
		{"fig16", func() error { _, err := exp.Fig16(sc, out); return err }},
		{"fig17", func() error { _, err := s.Fig17(out); return err }},
		{"lifetime", func() error { _, err := s.Lifetime(out); return err }},
		{"osiris", func() error { _, err := s.Osiris(out); return err }},
		{"integrity", func() error { _, err := s.Integrity(out); return err }},
	}
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "quick", "experiment scale: quick|full")
	figure := fs.String("figure", "all", "which figure to regenerate (or 'all')")
	jobs := fs.Int("j", 0, "concurrent simulation cells; <= 0 means GOMAXPROCS")
	progress := fs.String("progress", "", "append per-cell JSONL progress records to this file")
	version := fs.Bool("version", false, "print build/version information and exit")
	perfOpts := perf.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		perf.PrintVersion(stdout, "experiments")
		return 0
	}

	sc, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sc.Jobs = *jobs

	session, err := perfOpts.Begin("experiments", args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if workers := sc.Jobs; workers > 0 {
		session.SetWorkers(workers)
	} else {
		session.SetWorkers(runtime.GOMAXPROCS(0))
	}

	if *progress != "" {
		f, err := os.Create(*progress)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		pw := probe.NewProgress(f)
		defer pw.Close()
		sc.Progress = pw.OnDone
	}
	// The perf session taps the same per-cell stream for its fleet
	// utilization stats; with profiling off this is a no-op passthrough.
	sc.Progress = session.RunnerSink(sc.Progress)

	runners := figureRunners(sc, stdout)

	// Validate -figure before running anything, so a typo fails fast
	// with the full list instead of after minutes of simulation.
	if *figure != "all" {
		known := false
		for _, r := range runners {
			if r.name == *figure {
				known = true
				break
			}
		}
		if !known {
			var names []string
			for _, r := range runners {
				names = append(names, r.name)
			}
			fmt.Fprintf(stderr, "unknown figure %q (valid: all %s)\n", *figure, strings.Join(names, " "))
			return 2
		}
	}

	for _, r := range runners {
		if *figure != "all" && *figure != r.name {
			continue
		}
		start := time.Now()
		reg := perf.Begin("figure/" + r.name)
		err := r.fn()
		reg.End()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", r.name, err)
			return 1
		}
		// Wall-clock timing is operational noise: stderr only, so stdout
		// stays simulated-time figure rows.
		fmt.Fprintf(stderr, "[%s done in %v]\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if err := session.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
