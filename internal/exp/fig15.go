package exp

import (
	"fmt"
	"io"

	"encnvm/internal/machine"
	"encnvm/internal/stats"
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

// Fig15 regenerates Figure 15 in a one-shot session; see Session.Fig15.
func Fig15(sc Scale, out io.Writer) (Fig15Result, error) { return NewSession(sc).Fig15(out) }

// Fig15 regenerates Figure 15: SCA with counter caches from the smallest
// to the largest size of the sweep, across workload footprints. The
// workload is arrayswap — the footprint knob is exact (8B per item) and
// accesses are uniformly random, the worst case for counter locality.
// It returns the first write error.
func (s *Session) Fig15(w io.Writer) (Fig15Result, error) {
	sc := s.sc
	res := Fig15Result{FootprintItems: sc.Fig15Footprints, CacheSizes: sc.Fig15CacheSizes}

	// The (footprint × cache size) grid; each footprint is its own
	// trace parameters, so its traces are built once and shared by its
	// row.
	var cells []cell
	for _, items := range sc.Fig15Footprints {
		p := sc.Params
		p.Items = items
		// Enough operations to touch a representative sample of the
		// footprint during the measured phase.
		p.Ops = max(p.Ops, items/64)
		for _, size := range sc.Fig15CacheSizes {
			cells = append(cells, cell{machine.Spec{Engine: "sca", CounterCacheBytes: size}, "arrayswap", p})
		}
	}
	rs, err := s.grid("fig15", cells)
	if err != nil {
		return res, err
	}

	out := &errWriter{w: w}
	header(out, "Figure 15: SCA counter-cache size sensitivity (arrayswap)")
	for fi, items := range sc.Fig15Footprints {
		var speedups, misses []float64
		var baseRuntime float64
		fmt.Fprintf(out, "\nfootprint %6.1fMB:", float64(items)*8/(1<<20))
		for i, size := range sc.Fig15CacheSizes {
			r := rs[fi*len(sc.Fig15CacheSizes)+i]
			if i == 0 {
				baseRuntime = float64(r.runtime)
			}
			speedups = append(speedups, baseRuntime/float64(r.runtime))
			miss := 1 - r.stats.HitRate(stats.CounterCacheHits, stats.CounterCacheMiss)
			misses = append(misses, miss)
			fmt.Fprintf(out, " [%4dKB: %.3fx, miss %4.1f%%]", size>>10, speedups[i], miss*100)
		}
		fmt.Fprintln(out)
		res.Speedup = append(res.Speedup, speedups)
		res.MissRate = append(res.MissRate, misses)
	}
	return res, out.err
}
