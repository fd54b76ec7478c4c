package exp

import (
	"context"
	"fmt"
	"io"

	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/runner"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Fig15Result holds the counter-cache-size sensitivity of SCA: speedup
// over the smallest cache and the counter-cache miss rate, per footprint.
type Fig15Result struct {
	FootprintItems []int
	CacheSizes     []int
	// Speedup[footprintIdx][cacheIdx] over the smallest cache size.
	Speedup [][]float64
	// MissRate[footprintIdx][cacheIdx].
	MissRate [][]float64
}

// Fig15 regenerates Figure 15: SCA with counter caches from the smallest
// to the largest size of the sweep, across workload footprints. The
// workload is arrayswap — the footprint knob is exact (8B per item) and
// accesses are uniformly random, the worst case for counter locality.
func Fig15(sc Scale, out io.Writer) (Fig15Result, error) {
	res := Fig15Result{FootprintItems: sc.Fig15Footprints, CacheSizes: sc.Fig15CacheSizes}
	w := &workloads.ArraySwap{}

	// Stage 1: build each footprint's traces, concurrently — they are
	// independent functional runs.
	traceSets, err := runner.MapValues(context.Background(), sc.Fig15Footprints,
		func(_ context.Context, items int) ([]*trace.Trace, error) {
			p := sc.Params
			p.Items = items
			// Enough operations to touch a representative sample of the
			// footprint during the measured phase.
			p.Ops = max(p.Ops, items/64)
			return crash.BuildTraces(w, p, 1), nil
		},
		sc.cellOpts(func(i int) string {
			return fmt.Sprintf("fig15/build/%dKB", sc.Fig15Footprints[i]*8>>10)
		}))
	if err != nil {
		return res, err
	}

	// Stage 2: the (footprint × cache size) grid over the shared
	// read-only traces, one engine instance per cell.
	type cell struct{ fi, ci int }
	var cells []cell
	for fi := range sc.Fig15Footprints {
		for ci := range sc.Fig15CacheSizes {
			cells = append(cells, cell{fi, ci})
		}
	}
	rs, err := runner.MapValues(context.Background(), cells,
		func(_ context.Context, c cell) (core.Result, error) {
			spec := &machine.Spec{Engine: "sca", CounterCacheBytes: sc.Fig15CacheSizes[c.ci]}
			return core.Run(spec, w.Name(), trace.Sources(traceSets[c.fi]), nil)
		},
		sc.cellOpts(func(i int) string {
			return fmt.Sprintf("fig15/%dKB/%dKB",
				sc.Fig15Footprints[cells[i].fi]*8>>10, sc.Fig15CacheSizes[cells[i].ci]>>10)
		}))
	if err != nil {
		return res, err
	}

	header(out, "Figure 15: SCA counter-cache size sensitivity (arrayswap)")
	for fi, items := range sc.Fig15Footprints {
		var speedups, misses []float64
		var baseRuntime float64
		fmt.Fprintf(out, "\nfootprint %6.1fMB:", float64(items)*8/(1<<20))
		for i, size := range sc.Fig15CacheSizes {
			r := rs[fi*len(sc.Fig15CacheSizes)+i]
			if i == 0 {
				baseRuntime = float64(r.Runtime)
			}
			speedups = append(speedups, baseRuntime/float64(r.Runtime))
			miss := 1 - r.Stats.HitRate(stats.CounterCacheHits, stats.CounterCacheMiss)
			misses = append(misses, miss)
			fmt.Fprintf(out, " [%4dKB: %.3fx, miss %4.1f%%]", size>>10, speedups[i], miss*100)
		}
		fmt.Fprintln(out)
		res.Speedup = append(res.Speedup, speedups)
		res.MissRate = append(res.MissRate, misses)
	}
	return res, nil
}
