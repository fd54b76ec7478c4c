// Command persistcheck is the repo's static checker for
// persistency-protocol bugs, with three independent halves:
//
// Source analysis (default): runs the internal/check/analyzers suite —
// protocol-shape checks (rawspacewrite, ccwbfence), the CFG-based
// persist-ordering check (persistorder), and the determinism suite
// guarding the simulator's byte-reproducibility (wallclock,
// unseededrand, maprange) — over package directories and prints findings
// in the familiar file:line:col form. Naming an interprocedural analyzer
// (hotalloc, lockorder) with -analyzers adds a whole-program pass over
// the hot-loop packages; "-analyzers all" deliberately stays
// per-package so the default CI invocation needs no call graph.
//
// Trace verification (-verify): builds every built-in workload trace in
// both transaction modes and statically enumerates every crash-point
// equivalence class through internal/check/verify, proving that all
// reachable persisted images satisfy counter-atomicity, seal-before-
// mutate, and commit ordering. Violations come with concrete crash
// schedules; -cex-dir writes each as a JSON counterexample replayable by
// `crashtest -schedule`.
//
// Engine contract checking (-enginecheck): model-checks every registry
// engine's policy table — plus any machine-spec JSON files named as
// arguments — against the contract rules C0–C4 and, by symbolically
// executing the abstract programs under the engine's derived persistence
// model, the verifier invariants V0–V4. V-rule findings carry concrete
// crash schedules; -cex-dir writes each as a self-contained JSON
// counterexample whose abstract trace replays through the verify
// machinery. -mutants runs the built-in self-test instead: every seeded
// bad-engine mutant must be caught by one of its expected rules.
//
// Usage:
//
//	persistcheck [-tests] [-list] [-analyzers names]
//	             [-hotalloc-allow file] [dir ...]
//	persistcheck -verify [-items N] [-ops N] [-opspertx N] [-seed N]
//	             [-cex-dir dir] [-spec machine.json]
//	persistcheck -enginecheck [-cex-dir dir] [spec.json ...]
//	persistcheck -mutants
//
// With -spec, the named declarative machine spec is decoded, validated,
// and resolved to a full configuration before verification runs — a
// malformed spec fails fast with exit 2, so CI can gate custom machine
// definitions alongside the trace proofs. -enginecheck applies the same
// treatment to its spec.json arguments: each is resolved to its engine
// and configuration, then contract-checked under that sizing.
//
// Each directory argument is checked recursively ("./..." is accepted as
// a synonym for "."); with no arguments the current directory tree is
// checked. testdata and hidden directories are skipped unless named
// explicitly.
//
// Exit status: 0 clean, 1 findings or violations, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"encnvm/internal/check"
	"encnvm/internal/check/analyzers"
	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/verify"
	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/machine/engines"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: persistcheck [-tests] [-list] [-analyzers names] [-hotalloc-allow file] [dir ...]\n"+
			"       persistcheck -verify [-items N] [-ops N] [-opspertx N] [-seed N] [-cex-dir dir] [-spec machine.json]\n"+
			"       persistcheck -enginecheck [-cex-dir dir] [spec.json ...]\n"+
			"       persistcheck -mutants\n\n"+
			"Exit status: 0 clean, 1 findings or violations, 2 usage or I/O error.\n\n")
	flag.PrintDefaults()
}

func main() {
	tests := flag.Bool("tests", false, "also check _test.go files")
	list := flag.Bool("list", false, "list analyzers and exit")
	names := flag.String("analyzers", "all", "comma-separated analyzer subset to run")
	doVerify := flag.Bool("verify", false, "statically verify all built-in workload traces instead of analyzing source")
	items := flag.Int("items", 64, "verify: initial structure population")
	ops := flag.Int("ops", 24, "verify: measured operations")
	opsPerTx := flag.Int("opspertx", 4, "verify: operations per transaction")
	seed := flag.Int64("seed", 7, "verify: workload RNG seed")
	cexDir := flag.String("cex-dir", "", "verify/enginecheck: write counterexamples to this directory")
	specPath := flag.String("spec", "", "verify: validate this machine-spec JSON file and resolve its configuration first")
	engineCheck := flag.Bool("enginecheck", false, "contract-check every registry engine (and any spec.json arguments) instead of analyzing source")
	mutantsMode := flag.Bool("mutants", false, "self-test: every seeded bad-engine mutant must be caught by an expected rule")
	allowPath := flag.String("hotalloc-allow", "internal/check/analyzers/hotalloc.allow",
		"hotalloc: allowlist of known hot-path allocation sites (\"\" for none)")
	version := flag.Bool("version", false, "print build/version information and exit")
	flag.Usage = usage
	flag.Parse()

	if *version {
		perf.PrintVersion(os.Stdout, "persistcheck")
		return
	}
	if *list {
		printCatalog()
		return
	}
	if *mutantsMode {
		os.Exit(runMutants(*cexDir))
	}
	if *engineCheck {
		os.Exit(runEngineCheck(flag.Args(), *cexDir))
	}
	if *doVerify {
		if *specPath != "" {
			if err := checkSpec(*specPath); err != nil {
				fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
				os.Exit(2)
			}
		}
		os.Exit(runVerify(workloads.Params{
			Seed: *seed, Items: *items, Ops: *ops, OpsPerTx: *opsPerTx,
		}, *cexDir))
	}
	if *specPath != "" {
		fmt.Fprintln(os.Stderr, "persistcheck: -spec requires -verify")
		os.Exit(2)
	}

	// Interprocedural analyzers run only when named explicitly;
	// whatever InterByName does not recognize goes to the per-package
	// catalog, so "-analyzers all" stays call-graph-free and unknown
	// names still fail fast.
	inter, rest := analyzers.InterByName(*names)
	var as []*analyzers.Analyzer
	if len(rest) > 0 {
		var err error
		as, err = analyzers.ByName(strings.Join(rest, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			os.Exit(2)
		}
	}
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	for i, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		if root == "" {
			root = "."
		}
		roots[i] = root
	}
	findings := 0
	for _, root := range roots {
		dirs, err := analyzers.Walk(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			os.Exit(2)
		}
		for _, dir := range dirs {
			fs, err := analyzers.RunDir(dir, as, *tests)
			if err != nil {
				fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
				os.Exit(2)
			}
			for _, f := range fs {
				fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
				findings++
			}
		}
	}
	if len(inter) > 0 {
		n, err := runInter(roots, inter, *allowPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			os.Exit(2)
		}
		findings += n
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "persistcheck: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// printCatalog lists every analyzer and check pass the tool exposes,
// with the one-line doc each maintains for exactly this listing.
func printCatalog() {
	fmt.Println("Source analyzers (per-package, default set):")
	for _, a := range analyzers.All() {
		fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Println("\nInterprocedural analyzers (run only when named with -analyzers):")
	for _, a := range analyzers.AllInter() {
		fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Println("\nReplay check passes (crashtest -check):")
	for _, d := range check.RuleDocs() {
		fmt.Printf("  %s\n", d)
	}
	fmt.Println("\nTrace verifier invariants (-verify):")
	for _, v := range verify.Invariants() {
		fmt.Printf("  %-4s %s\n", v.ID, v.Doc)
	}
	fmt.Println("\nEngine contract rules (-enginecheck):")
	for _, r := range enginecheck.Rules() {
		fmt.Printf("  %-4s %s\n", r.ID, r.Doc)
	}
}

// runInter runs the named interprocedural analyzers over one shared call
// graph. Each root is narrowed to the hot-loop package scope; a root
// with no in-scope packages (an explicitly named fixture or scratch
// directory) is taken whole instead.
func runInter(roots []string, inter []*analyzers.InterAnalyzer, allowPath string) (int, error) {
	var opts analyzers.InterOptions
	needsAllow := false
	for _, a := range inter {
		if a.Name == "hotalloc" {
			needsAllow = true
		}
	}
	if needsAllow {
		allow, err := analyzers.LoadAllowlist(allowPath)
		if err != nil {
			return 0, err
		}
		opts.Allow = allow
	}
	seen := map[string]bool{}
	var dirs []string
	for _, root := range roots {
		scoped, err := analyzers.InterDirs(root)
		if err != nil {
			return 0, err
		}
		if len(scoped) == 0 {
			if scoped, err = analyzers.Walk(root); err != nil {
				return 0, err
			}
		}
		for _, d := range scoped {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	fs, err := analyzers.RunInter(dirs, inter, &opts)
	if err != nil {
		return 0, err
	}
	for _, f := range fs {
		fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	return len(fs), nil
}

// runEngineCheck contract-checks every registry engine under its design
// default configuration, then every machine-spec file named on the
// command line under its resolved configuration, returning the process
// exit code. V-rule findings are written to cexDir as replayable
// abstract-trace counterexamples.
func runEngineCheck(specPaths []string, cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	type target struct {
		eng engines.Policy
		cfg *config.Config
		src string
	}
	var targets []target
	for _, name := range engines.Names() {
		e, err := engines.ByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			return 2
		}
		targets = append(targets, target{e, config.Default(e.Design), "registry"})
	}
	for _, path := range specPaths {
		eng, cfg, err := engineFromSpec(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			return 2
		}
		targets = append(targets, target{eng, cfg, path})
	}
	exit := 0
	for _, t := range targets {
		rep := enginecheck.Check(t.eng, t.cfg)
		status := "OK"
		if !rep.Clean() {
			status = fmt.Sprintf("%d finding(s)", len(rep.Findings))
		}
		fmt.Printf("%-14s %2d abstract programs (%s): %s\n",
			t.eng.Name, rep.Programs, t.src, status)
		if rep.Clean() {
			continue
		}
		exit = 1
		for i, f := range rep.Findings {
			fmt.Printf("  %s\n", f)
			if f.Violation == nil || cexDir == "" {
				continue
			}
			file := enginecheck.NewFile(t.eng.Name, f, enginecheck.ModelFor(t.eng, t.cfg))
			path := filepath.Join(cexDir,
				fmt.Sprintf("%s-%s-%d.json", t.eng.Name, f.Rule, i))
			if err := file.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
				return 2
			}
			fmt.Printf("    counterexample written to %s\n", path)
		}
	}
	return exit
}

// engineFromSpec resolves a machine-spec file to the engine it names and
// the configuration it implies, so custom machine definitions are
// contract-checked under their own sizing (stop-loss windows scale with
// the counter cache, not the Table-2 default).
func engineFromSpec(path string) (engines.Policy, *config.Config, error) {
	r, cfg, err := resolveSpec(path)
	if err != nil {
		return engines.Policy{}, nil, err
	}
	eng, err := engines.ByName(r.Engine)
	if err != nil {
		return engines.Policy{}, nil, fmt.Errorf("%s: %v", path, err)
	}
	return eng, cfg, nil
}

// resolveSpec decodes, validates, and fully resolves a machine-spec
// file, rejecting machines too small to hold the harness arenas.
func resolveSpec(path string) (*machine.Spec, *config.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	spec, err := machine.DecodeSpec(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := crash.CheckArenas(cfg); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	r, err := spec.Resolved()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, cfg, nil
}

// runMutants runs the seeded bad-engine catalog through the checker:
// every mutant must draw at least one finding, and at least one finding
// must carry a rule its catalog entry expects. This is the proof that
// the contract rules have teeth, run in CI next to the clean gate. With
// cexDir, each mutant's first V-rule finding is written out as a
// replayable counterexample.
func runMutants(cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	bad := 0
	catalog := enginecheck.Mutants()
	for _, m := range catalog {
		rep := enginecheck.Check(m.Engine, nil)
		if rep.Clean() {
			bad++
			fmt.Printf("%-26s ESCAPED — %s\n", m.Engine.Name, m.Why)
			continue
		}
		var rules []string
		ruleSeen := map[string]bool{}
		matched := false
		for _, f := range rep.Findings {
			if !ruleSeen[f.Rule] {
				ruleSeen[f.Rule] = true
				rules = append(rules, f.Rule)
			}
			for _, want := range m.Expect {
				if f.Rule == want {
					matched = true
				}
			}
		}
		if !matched {
			bad++
			fmt.Printf("%-26s caught by %v, want one of %v\n",
				m.Engine.Name, rules, m.Expect)
			continue
		}
		fmt.Printf("%-26s caught by %v (expected %v)\n",
			m.Engine.Name, rules, m.Expect)
		if cexDir == "" {
			continue
		}
		for _, f := range rep.Findings {
			if f.Violation == nil {
				continue
			}
			file := enginecheck.NewFile(m.Engine.Name, f,
				enginecheck.ModelFor(m.Engine, config.Default(m.Engine.Design)))
			path := filepath.Join(cexDir,
				fmt.Sprintf("%s-%s.json", m.Engine.Name, f.Rule))
			if err := file.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
				return 2
			}
			fmt.Printf("    counterexample written to %s\n", path)
			break
		}
	}
	fmt.Printf("%d/%d mutants caught by their expected rules\n",
		len(catalog)-bad, len(catalog))
	if bad > 0 {
		return 1
	}
	return 0
}

// checkSpec decodes, validates, and fully resolves a machine-spec file,
// confirming it describes a buildable machine before verification runs.
func checkSpec(path string) error {
	r, cfg, err := resolveSpec(path)
	if err != nil {
		return err
	}
	fmt.Printf("machine spec %s: engine %s, backend %s, %d core(s), design %v — OK\n",
		path, r.Engine, r.Backend, cfg.NumCores, cfg.Design)
	return nil
}

// runVerify statically verifies every built-in workload trace in both
// transaction modes, returning the process exit code.
func runVerify(p workloads.Params, cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	exit := 0
	arena := persist.ArenaFor(0, crash.DefaultArena)
	opts := verify.Options{Arenas: []persist.Arena{arena}}
	for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
		for _, w := range workloads.Extended() {
			wp := p
			wp.TxMode = mode
			tr := crash.BuildTraces(w, wp, 1)[0]
			if err := tr.Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "persistcheck: %s/%s: invalid trace: %v\n",
					w.Name(), mode, err)
				return 2
			}
			res := verify.Verify(tr, opts)
			status := "clean"
			if !res.Clean() {
				status = fmt.Sprintf("%d VIOLATION(S)", len(res.Violations))
			}
			fmt.Printf("%-10s %-4s  %6d ops, %4d epochs, %5d crash classes: %s\n",
				w.Name(), mode, res.Ops, res.Epochs, res.Classes, status)
			if res.Clean() {
				continue
			}
			exit = 1
			for i, v := range res.Violations {
				fmt.Printf("  %v\n", v)
				if v.Schedule == nil || cexDir == "" {
					continue
				}
				f := &verify.File{
					Workload: w.Name(), TxMode: mode.String(),
					Seed: wp.Seed, Items: wp.Items, Ops: wp.Ops,
					OpsPerTx: wp.OpsPerTx, Cores: 1,
					Schedule: *v.Schedule,
				}
				path := filepath.Join(cexDir,
					fmt.Sprintf("%s-%s-%s-op%d-%d.json", w.Name(), mode, v.Inv, v.OpIndex, i))
				if err := f.WriteFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "persistcheck: %v\n", err)
					return 2
				}
				fmt.Printf("    counterexample written to %s\n", path)
			}
		}
	}
	return exit
}
