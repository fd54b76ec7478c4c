package exp

import (
	"fmt"
	"io"

	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// Fig13Result holds multi-core throughput per workload, design and core
// count, normalized to the single-core no-encryption run of the same
// workload (higher is better).
type Fig13Result struct {
	Workloads []string
	Cores     []int
	// Normalized[workload][engine][cores].
	Normalized map[string]map[string]map[int]float64
}

// fig13Engines are the series of the paper's Figure 13.
var fig13Engines = []string{"noenc", "ideal", "sca", "fca", "colocated", "colocatedcc"}

// Fig13 regenerates Figure 13 in a one-shot session; see Session.Fig13.
func Fig13(sc Scale, out io.Writer) (Fig13Result, error) { return NewSession(sc).Fig13(out) }

// Fig13 regenerates Figure 13: throughput of multithreaded workloads
// normalized to single-core no-encryption. It returns the first write
// error.
func (s *Session) Fig13(w io.Writer) (Fig13Result, error) {
	sc := s.sc
	res := Fig13Result{
		Cores:      sc.Cores,
		Normalized: make(map[string]map[string]map[int]float64),
	}
	out := &errWriter{w: w}
	header(out, "Figure 13: throughput normalized to 1-core NoEncryption (higher is better)")

	// One grid per workload, so its trace set is released before the
	// next builds, bounding peak memory at full scale.
	for _, wl := range workloads.All() {
		// Throughput scaling needs per-transaction think time: with
		// back-to-back write bursts every design saturates PCM write
		// bandwidth and no core count helps. The paper's out-of-order
		// cores overlap this work implicitly; the trace model makes it
		// explicit.
		p := sc.ParamsFor(wl.Name())
		p.ComputeCycles = 3000
		var cells []cell
		for _, e := range fig13Engines {
			for _, n := range sc.Cores {
				cells = append(cells, cell{machine.Spec{Engine: e, Cores: n}, wl.Name(), p})
			}
		}
		// The normalization baseline comes last: when the grid already
		// holds it, the request is a memo hit instead of a wait.
		cells = append(cells, cell{machine.Spec{Engine: "noenc", Cores: 1}, wl.Name(), p})
		rs, err := s.grid("fig13", cells)
		if err != nil {
			return res, err
		}
		base := rs[len(rs)-1]
		res.Workloads = append(res.Workloads, wl.Name())
		res.Normalized[wl.Name()] = make(map[string]map[int]float64)

		fmt.Fprintf(out, "\n%s\n%-24s", wl.Name(), "design \\ cores")
		for _, n := range sc.Cores {
			fmt.Fprintf(out, " %8d", n)
		}
		fmt.Fprintln(out)
		for ei, e := range fig13Engines {
			res.Normalized[wl.Name()][e] = make(map[int]float64)
			fmt.Fprintf(out, "%-24s", label(e))
			for ni, n := range sc.Cores {
				norm := rs[ei*len(sc.Cores)+ni].throughput / base.throughput
				res.Normalized[wl.Name()][e][n] = norm
				fmt.Fprintf(out, " %8.2f", norm)
			}
			fmt.Fprintln(out)
		}
	}

	// The headline numbers: SCA's average improvement over FCA per core
	// count, and its distance from Ideal (paper: 6/11/22/40% and <5%).
	fmt.Fprintf(out, "\n%-40s", "SCA speedup over FCA (geomean)")
	for _, n := range sc.Cores {
		fmt.Fprintf(out, " %8.3f", res.SCAOverFCA(n))
	}
	fmt.Fprintf(out, "\n%-40s", "SCA fraction of Ideal (geomean)")
	for _, n := range sc.Cores {
		fmt.Fprintf(out, " %8.3f", res.SCAOverIdeal(n))
	}
	fmt.Fprintln(out)
	return res, out.err
}

// SCAOverFCA extracts the per-core-count SCA/FCA throughput ratio
// (geomean across workloads) from a Fig13Result.
func (r Fig13Result) SCAOverFCA(cores int) float64 { return r.ratio("fca", cores) }

// SCAOverIdeal extracts the per-core-count SCA/Ideal throughput ratio.
func (r Fig13Result) SCAOverIdeal(cores int) float64 { return r.ratio("ideal", cores) }

// ratio is SCA's throughput over engine's at a core count, geomean
// across workloads.
func (r Fig13Result) ratio(engine string, cores int) float64 {
	var ratios []float64
	for _, w := range r.Workloads {
		ratios = append(ratios, r.Normalized[w]["sca"][cores]/r.Normalized[w][engine][cores])
	}
	return geomean(ratios)
}
