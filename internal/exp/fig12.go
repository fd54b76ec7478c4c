package exp

import (
	"fmt"
	"io"
	"slices"

	"encnvm/internal/workloads"
)

// Fig12Result holds the single-core runtime of each design normalized to
// the no-encryption design (lower is better), per workload plus average.
type Fig12Result struct {
	Workloads []string
	// Normalized[workload][engine] = runtime / runtime("noenc").
	Normalized map[string]map[string]float64
	Average    map[string]float64
}

// fig12Engines are the bars of the paper's Figures 12 and 14.
var fig12Engines = []string{"sca", "fca", "colocated", "colocatedcc"}

// normColumn is one column of a normalized table: an engine's metric
// over the baseline engine's on the same workload, with the geomean in
// the average row. Values land in byWorkload[w][engine] and avg[engine].
type normColumn struct {
	header     string
	engine     string
	metric     func(cellResult) float64
	byWorkload map[string]map[string]float64
	avg        map[string]float64
}

func runtimeOf(r cellResult) float64 { return float64(r.runtime) }
func bytesOf(r cellResult) float64   { return float64(r.bytesWritten) }

// normTable prints a per-workload table of single-core columns
// normalized to the base engine and returns the workload names. Every
// cell is a session request, so columns another figure already ran are
// memo hits.
func (s *Session) normTable(out io.Writer, fig, title, base string, width int, cols []normColumn) ([]string, error) {
	engines := []string{base}
	for _, c := range cols {
		if !slices.Contains(engines, c.engine) {
			engines = append(engines, c.engine)
		}
	}
	rs, err := s.perWorkload(fig, engines)
	if err != nil {
		return nil, err
	}

	header(out, title)
	fmt.Fprintf(out, "%-12s", "workload")
	for _, c := range cols {
		fmt.Fprintf(out, " %*s", width, c.header)
	}
	fmt.Fprintln(out)
	var names []string
	perCol := make([][]float64, len(cols))
	for wi, w := range workloads.All() {
		row := rs[wi*len(engines) : (wi+1)*len(engines)]
		fmt.Fprintf(out, "%-12s", w.Name())
		for ci, c := range cols {
			norm := c.metric(row[slices.Index(engines, c.engine)]) / c.metric(row[0])
			if c.byWorkload[w.Name()] == nil {
				c.byWorkload[w.Name()] = make(map[string]float64)
			}
			c.byWorkload[w.Name()][c.engine] = norm
			perCol[ci] = append(perCol[ci], norm)
			fmt.Fprintf(out, " %*.3f", width, norm)
		}
		fmt.Fprintln(out)
		names = append(names, w.Name())
	}
	fmt.Fprintf(out, "%-12s", "average")
	for ci, c := range cols {
		c.avg[c.engine] = geomean(perCol[ci])
		fmt.Fprintf(out, " %*.3f", width, c.avg[c.engine])
	}
	fmt.Fprintln(out)
	return names, nil
}

// Fig12 regenerates Figure 12 in a one-shot session; see Session.Fig12.
func Fig12(sc Scale, out io.Writer) (Fig12Result, error) { return NewSession(sc).Fig12(out) }

// Fig12 regenerates Figure 12: single-core runtime normalized to
// no-encryption for SCA, FCA, Co-located and Co-located w/ C-Cache. It
// returns the first write error.
func (s *Session) Fig12(w io.Writer) (Fig12Result, error) {
	return s.fig12Table(w, "fig12", "Figure 12: single-core runtime normalized to NoEncryption (lower is better)", runtimeOf)
}

// fig12Table is the table Figures 12 and 14 share: Fig. 12's engines
// normalized to no-encryption under one metric.
func (s *Session) fig12Table(w io.Writer, fig, title string, metric func(cellResult) float64) (Fig12Result, error) {
	res := Fig12Result{Normalized: make(map[string]map[string]float64), Average: make(map[string]float64)}
	var cols []normColumn
	for _, e := range fig12Engines {
		cols = append(cols, normColumn{label(e), e, metric, res.Normalized, res.Average})
	}
	out := &errWriter{w: w}
	var err error
	if res.Workloads, err = s.normTable(out, fig, title, "noenc", 22, cols); err != nil {
		return res, err
	}
	return res, out.err
}
