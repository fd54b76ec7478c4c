// Package exp regenerates every table and figure of the paper's evaluation
// (§6): single-core runtime (Fig. 12), multi-core throughput (Fig. 13),
// write traffic (Fig. 14), counter-cache-size sensitivity (Fig. 15),
// transaction-size sensitivity (Fig. 16), NVM-latency sensitivity
// (Fig. 17), the system-configuration table (Table 2), the
// transaction-stage analysis (Table 1 / Fig. 8), and the motivating crash
// failure (Figs. 3/4).
//
// The simulation-backed figures are methods of a Session, one per
// experiments run, so a cell several figures share is simulated once;
// the package-level functions of the same names run one figure in a
// one-shot session.
//
// Absolute numbers come from this repository's own simulator, not the
// authors' Gem5 testbed; the quantities that must (and do) reproduce are
// the orderings and trends — see EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"math"

	"encnvm/internal/machine/engines"
	"encnvm/internal/runner"
	"encnvm/internal/workloads"
)

// Scale sizes the experiments. The paper runs 100MB–1GB footprints on
// Gem5; Full scales those down ~10x so a figure regenerates in minutes,
// Quick another ~10x for tests and smoke runs. Counter-cache sizes in the
// Fig. 15 sweep scale down by the same factor as the footprints, keeping
// the cache:footprint ratios of the paper.
type Scale struct {
	Name   string
	Params workloads.Params
	// ItemsFor overrides Params.Items per workload so each structure's
	// footprint exceeds the shared L2 and the measured phase sees real
	// read misses, as in the paper's 100MB+ footprints.
	ItemsFor map[string]int
	// Cores swept by Fig. 13.
	Cores []int
	// CrashPoints per crash sweep (Fig. 4).
	CrashPoints int
	// Fig15Footprints is the arrayswap item count per footprint column.
	Fig15Footprints []int
	// Fig15CacheSizes is the counter-cache size sweep in bytes.
	Fig15CacheSizes []int
	// Fig16Lines is the transaction-size sweep in cache lines.
	Fig16Lines []int
	// Fig17Factors is the latency scale sweep (>1 slower, <1 faster).
	Fig17Factors []float64

	// Jobs is the simulation fan-out degree (the -j flag): how many
	// independent cells — one engine/controller/device instance each —
	// run concurrently. <= 0 uses GOMAXPROCS; 1 is the sequential loop.
	// Figure output is byte-identical for every value, because rows are
	// formatted from results collected in submission order.
	Jobs int
	// Progress, when non-nil, receives one record per completed cell
	// (wall-clock telemetry for stderr/side files, never for stdout).
	Progress func(runner.Progress)
}

// Quick is the test/smoke scale.
var Quick = Scale{
	Name:            "quick",
	Params:          workloads.Params{Seed: 42, Items: 512, Ops: 96, OpsPerTx: 1, ComputeCycles: 200},
	ItemsFor:        map[string]int{},
	Cores:           []int{1, 2},
	CrashPoints:     8,
	Fig15Footprints: []int{1 << 14, 1 << 15}, // 128KB, 256KB arrays
	Fig15CacheSizes: []int{8 << 10, 16 << 10, 32 << 10},
	Fig16Lines:      []int{1, 4, 16},
	Fig17Factors:    []float64{3, 1, 0.25},
}

// Full is the figure-regeneration scale (a ~10x scale-down of the paper).
var Full = Scale{
	Name:   "full",
	Params: workloads.Params{Seed: 42, Items: 16384, Ops: 512, OpsPerTx: 1, ComputeCycles: 200},
	ItemsFor: map[string]int{
		"arrayswap": 1 << 19, // 4MB array
		"queue":     1 << 15, // 2MB of nodes
		"hashtable": 3 << 15, // ~6MB of nodes + buckets
		"btree":     1 << 16, // ~2.8MB of nodes
		"rbtree":    1 << 16, // 4MB of nodes
	},
	Cores:           []int{1, 2, 4, 8},
	CrashPoints:     64,
	Fig15Footprints: []int{1 << 17, 1 << 19, 1 << 21}, // 1MB, 4MB, 16MB arrays
	Fig15CacheSizes: []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
	Fig16Lines:      []int{1, 2, 4, 8, 16, 32, 64},
	Fig17Factors:    []float64{10, 5, 3, 1, 0.5, 0.25},
}

// ScaleByName returns the named scale.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Scale{}, fmt.Errorf("exp: unknown scale %q (quick|full)", name)
	}
}

// ParamsFor returns the scale's parameters for one workload, applying the
// per-workload footprint override.
func (sc Scale) ParamsFor(name string) workloads.Params {
	p := sc.Params
	if n, ok := sc.ItemsFor[name]; ok && n > 0 {
		p.Items = n
	}
	return p
}

// geomean returns the geometric mean, the paper's cross-workload average.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	return math.Pow(prod, 1.0/float64(len(xs)))
}

// header prints a figure banner.
func header(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}

// cellOpts builds the runner options for one figure's fan-out.
func (sc Scale) cellOpts(label func(i int) string) runner.Options {
	return runner.Options{Workers: sc.Jobs, Label: label, OnDone: sc.Progress}
}

// errWriter wraps an io.Writer and remembers the first write error, so
// table printers can report closed-pipe/full-disk failures without
// threading an error through every Fprintf. Later writes after a failure
// are suppressed.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// label is an engine's column label: its design's name as the paper
// prints it.
func label(engine string) string {
	p, _ := engines.ByName(engine)
	return p.Design.String()
}
