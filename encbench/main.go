// Command encbench is encnvm's end-to-end and per-layer benchmark. It runs
// one workload in-process against the library and prints every metric by
// name with its unit, then one JSON result object as its last line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash encbench/run.sh --workload campaign|figures|static|all
//	                     [--seed 42] [--seconds 30] [--trace 0|1]
//
// Workloads:
//
//	campaign  a pruned per-op crash campaign (SCA, btree) over nproc workers
//	figures   every figure of cmd/experiments at the quick scale
//	static    the linter, verifier and crash-class pruner over every
//	          workload trace in both transaction modes
//
// With --trace 0 the workload repeats until --seconds have passed and the
// end-to-end metrics are medians over the repetitions. With --trace 1 the
// command instead runs every workload once untraced and once with spans
// around each call into a layer, prints the per-layer metrics, checks
// the traced campaign's verdicts against the untraced campaign's, and
// writes the spans to --spans.
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 for a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"encnvm/internal/exp"
)

// metric is one named measurement as the result object carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the operations a run attempted and those that failed,
// with one message per failure for stderr.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// settings sizes one benchmark run. The defaults are the benchmark's
// inputs; tests shrink them.
type settings struct {
	seed    int64
	budget  time.Duration // how long the untraced loop keeps repeating
	minReps int
	workers int
	// golden is the expected figures stdout, or nil when the run's seed
	// or scale has no checked-in golden.
	golden []byte

	campaignItems, campaignOps int
	staticItems, staticOps     int
	scale                      exp.Scale
	// setupSamples is the least number of campaign set-up measurements
	// per run; short runs top up with halted campaigns.
	setupSamples int
}

func defaultSettings(seed int64) settings {
	sc := exp.Quick
	sc.Params.Seed = seed
	return settings{
		seed:          seed,
		budget:        30 * time.Second,
		minReps:       2,
		workers:       runtime.NumCPU(),
		campaignItems: 128, campaignOps: 48,
		staticItems: 128, staticOps: 48,
		scale:        sc,
		setupSamples: 5,
	}
}

var workloadNames = []string{"campaign", "figures", "static"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("encbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "campaign|figures|static|all")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the untraced loop repeats its workload")
	traced := fs.Int("trace", 0, "1: the traced per-layer run instead of the timed loop")
	root := fs.String("root", ".", "repository root (holds cmd/experiments/testdata)")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans.jsonl"), "traced run: write spans here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !contains(workloadNames, n) {
			fmt.Fprintf(stderr, "encbench: unknown workload %q (campaign|figures|static|all)\n", *workload)
			return 2
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "encbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := defaultSettings(*seed)
	cfg.budget = time.Duration(*seconds) * time.Second
	if *seed == exp.Quick.Params.Seed {
		g, err := os.ReadFile(filepath.Join(*root, "cmd", "experiments", "testdata", "golden_quick.txt"))
		if err != nil {
			fmt.Fprintf(stderr, "encbench: %v\n", err)
			return 2
		}
		cfg.golden = g
	}

	if *traced == 1 {
		// The traced run covers every workload whichever was named.
		tr := newTracer()
		res := runTraced(cfg, tr, stderr)
		if err := tr.write(*spans); err != nil {
			fmt.Fprintf(stderr, "encbench: %v\n", err)
			return 2
		}
		printResult(stdout, "traced", res)
		return exitCode(res)
	}
	exit := 0
	for _, n := range names {
		res := runWorkload(cfg, n, stderr)
		printResult(stdout, n, res)
		exit = max(exit, exitCode(res))
	}
	return exit
}

func exitCode(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// runWorkload is the untraced timed loop of one workload.
func runWorkload(cfg settings, name string, log io.Writer) result {
	var (
		m map[string]metric
		t tally
	)
	switch name {
	case "campaign":
		m, t = campaignLoop(cfg, log)
	case "figures":
		m, t = figuresLoop(cfg, log)
	case "static":
		m, t = staticLoop(cfg, log)
	}
	return finish(m, t, log)
}

// finish reports failures and assembles the result object.
func finish(m map[string]metric, t tally, log io.Writer) result {
	for _, e := range t.errs {
		fmt.Fprintf(log, "encbench: FAIL %s\n", e)
	}
	if t.attempted == 0 {
		t.attempted, t.failed = 1, 1
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// printResult writes one human-readable line per metric, the failure
// fraction, and the JSON result object last.
func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-32s %14.6g %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%s %-32s %14.6g frac (%d of %d)\n", workload, "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only numbers and strings
	}
	fmt.Fprintln(w, string(b))
}

// samples collects one value per repetition of a loop.
type samples []float64

func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// describe renders a sample set for the progress log.
func (s samples) describe() string {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	if len(c) == 0 {
		return "no samples"
	}
	return fmt.Sprintf("median %.4g min %.4g max %.4g n=%d", s.median(), c[0], c[len(c)-1], len(c))
}

// repeat runs rep until the budget is spent and at least min repetitions
// ran.
func repeat(budget time.Duration, min int, rep func()) {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < budget; n++ {
		rep()
	}
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// endToEnd builds the untraced metric set from per-repetition samples.
func endToEnd(wall, setup, perS, alloc samples) map[string]metric {
	return map[string]metric{
		"wall_s":       {wall.median(), "s"},
		"setup_s":      {setup.median(), "s"},
		"points_per_s": {perS.median(), "1/s"},
		"alloc_mb":     {alloc.median(), "MB"},
	}
}

// logSamples prints a workload's sample sets to the progress log.
func logSamples(log io.Writer, workload string, sets map[string]samples) {
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s: %s\n", k, sets[k].describe())
	}
	fmt.Fprintf(log, "%s samples:\n%s", workload, b.String())
}
