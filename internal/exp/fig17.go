package exp

import (
	"fmt"
	"io"

	"encnvm/internal/machine"
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

// Fig17 regenerates Figure 17 in a one-shot session; see Session.Fig17.
func Fig17(sc Scale, out io.Writer) (Fig17Result, error) { return NewSession(sc).Fig17(out) }

// fig17Cell is one Fig. 17 run: engine with its NVM read and write
// latency scaled, over the latency sweep's traces of workload.
func fig17Cell(sc Scale, engine string, readX, writeX float64, workload string) cell {
	// The latency sensitivity needs read-dominated transactions with
	// think time; back-to-back write bursts saturate the write path and
	// mask the read-side decryption effects the figure is about.
	p := sc.ParamsFor(workload)
	p.OpsPerTx = 4
	p.ComputeCycles = 2000
	return cell{machine.Spec{Engine: engine, ReadLatencyX: readX, WriteLatencyX: writeX}, workload, p}
}

// Fig17 regenerates Figure 17: SCA speedup over the co-located design
// under scaled NVM read latency (a) and write latency (b). The factor-1
// column of both sweeps is one machine, so its cells are requested twice
// and simulated once. It returns the first write error.
func (s *Session) Fig17(w io.Writer) (Fig17Result, error) {
	sc := s.sc
	res := Fig17Result{Factors: sc.Fig17Factors}
	ws := workloads.All()

	// The grid: {read, write} sweep × factor × workload × {Co-located,
	// SCA}.
	var cells []cell
	for _, write := range []bool{false, true} {
		for _, f := range sc.Fig17Factors {
			readX, writeX := f, 1.0
			if write {
				readX, writeX = 1, f
			}
			for _, wl := range ws {
				for _, e := range []string{"colocated", "sca"} {
					cells = append(cells, fig17Cell(sc, e, readX, writeX, wl.Name()))
				}
			}
		}
	}
	rs, err := s.grid("fig17", cells)
	if err != nil {
		return res, err
	}
	// geomean of Co-located/SCA runtime per factor over the workload
	// block of each sweep half.
	sweep := func(half, fi int) float64 {
		base := 2 * (half*len(sc.Fig17Factors)*len(ws) + fi*len(ws))
		var ratios []float64
		for wi := range ws {
			ratios = append(ratios, float64(rs[base+2*wi].runtime)/float64(rs[base+2*wi+1].runtime))
		}
		return geomean(ratios)
	}

	out := &errWriter{w: w}
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
	return res, out.err
}
