package exp

import (
	"context"
	"fmt"
	"io"

	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/runner"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Fig17Result holds SCA's average speedup over the co-located design as
// NVM read or write latency scales from much slower to much faster than
// the baseline PCM.
type Fig17Result struct {
	Factors []float64
	// ReadSweep[i] / WriteSweep[i]: geomean over workloads of
	// runtime(CoLocated)/runtime(SCA) at Factors[i] applied to the read
	// (resp. write) path.
	ReadSweep  []float64
	WriteSweep []float64
}

// fig17Scale derives the trace parameters for the latency sweep: several
// operations per transaction and inter-transaction think time.
func fig17Scale(sc Scale) Scale {
	out := sc
	out.Params.OpsPerTx = 4
	out.Params.ComputeCycles = 2000
	return out
}

// Fig17 regenerates Figure 17: SCA speedup over the co-located design
// under scaled NVM read latency (a) and write latency (b).
func Fig17(sc Scale, out io.Writer) (Fig17Result, error) {
	res := Fig17Result{Factors: sc.Fig17Factors}
	// The latency sensitivity needs read-dominated transactions with
	// think time; back-to-back write bursts saturate the write path and
	// mask the read-side decryption effects the figure is about.
	tc := newTraceCache(fig17Scale(sc))
	ws := workloads.All()
	tc.warm(sc, ws, 1)

	// The grid: {read, write} sweep × factor × workload, each cell a
	// CoLocated/SCA runtime-ratio pair over the shared traces.
	type cell struct {
		readX, writeX float64
		w             workloads.Workload
	}
	var cells []cell
	for _, f := range sc.Fig17Factors {
		for _, w := range ws {
			cells = append(cells, cell{f, 1, w})
		}
	}
	for _, f := range sc.Fig17Factors {
		for _, w := range ws {
			cells = append(cells, cell{1, f, w})
		}
	}
	ratios, err := runner.MapValues(context.Background(), cells,
		func(_ context.Context, c cell) (float64, error) {
			traces := tc.get(c.w, 1)
			colo, err := core.Run(&machine.Spec{Engine: "colocated", ReadLatencyX: c.readX, WriteLatencyX: c.writeX},
				c.w.Name(), trace.Sources(traces), nil)
			if err != nil {
				return 0, err
			}
			sca, err := core.Run(&machine.Spec{Engine: "sca", ReadLatencyX: c.readX, WriteLatencyX: c.writeX},
				c.w.Name(), trace.Sources(traces), nil)
			if err != nil {
				return 0, err
			}
			return float64(colo.Runtime) / float64(sca.Runtime), nil
		},
		sc.cellOpts(func(i int) string {
			return fmt.Sprintf("fig17/%s/r%gx-w%gx", cells[i].w.Name(), cells[i].readX, cells[i].writeX)
		}))
	if err != nil {
		return res, err
	}
	// geomean per factor over the workload block of each sweep half.
	sweep := func(half, fi int) float64 {
		base := half*len(sc.Fig17Factors)*len(ws) + fi*len(ws)
		return geomean(ratios[base : base+len(ws)])
	}

	header(out, "Figure 17: SCA speedup over Co-located vs NVM latency (geomean; >1 = SCA faster)")
	fmt.Fprintf(out, "%-24s", "latency factor")
	for _, f := range sc.Fig17Factors {
		fmt.Fprintf(out, " %8.2gx", f)
	}
	fmt.Fprintf(out, "\n%-24s", "(a) read latency sweep")
	for fi := range sc.Fig17Factors {
		s := sweep(0, fi)
		res.ReadSweep = append(res.ReadSweep, s)
		fmt.Fprintf(out, " %9.3f", s)
	}
	fmt.Fprintf(out, "\n%-24s", "(b) write latency sweep")
	for fi := range sc.Fig17Factors {
		s := sweep(1, fi)
		res.WriteSweep = append(res.WriteSweep, s)
		fmt.Fprintf(out, " %9.3f", s)
	}
	fmt.Fprintln(out)
	return res, nil
}

// fig17ArraySwapOnly runs the read-latency sweep on arrayswap alone —
// the workload whose footprint is an exact knob — returning the
// CoLocated/SCA runtime ratio per factor. Used by the trend test.
func fig17ArraySwapOnly(sc Scale) ([]float64, error) {
	tc := newTraceCache(fig17Scale(sc))
	w := &workloads.ArraySwap{}
	var out []float64
	for _, f := range sc.Fig17Factors {
		traces := tc.get(w, 1)
		colo, err := core.Run(&machine.Spec{Engine: "colocated", ReadLatencyX: f},
			w.Name(), trace.Sources(traces), nil)
		if err != nil {
			return nil, err
		}
		sca, err := core.Run(&machine.Spec{Engine: "sca", ReadLatencyX: f},
			w.Name(), trace.Sources(traces), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(colo.Runtime)/float64(sca.Runtime))
	}
	return out, nil
}
