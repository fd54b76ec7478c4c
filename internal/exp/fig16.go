package exp

import (
	"context"
	"fmt"
	"io"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/runner"
	"encnvm/internal/workloads"
)

// Fig16Result holds SCA's runtime normalized to the Ideal design as the
// transaction size grows (lower is better; converges to ~1).
type Fig16Result struct {
	Workloads []string
	TxLines   []int
	// Overhead[workload][txSizeIdx] = runtime(SCA)/runtime(Ideal).
	Overhead map[string][]float64
}

// linesPerOp approximates how many distinct cache lines one operation of
// each workload mutates, used to translate a target transaction size in
// cache lines into an OpsPerTx batch.
var linesPerOp = map[string]int{
	"arrayswap": 2,
	"queue":     2,
	"hashtable": 2,
	"btree":     4,
	"rbtree":    3,
}

// Fig16 regenerates Figure 16: SCA runtime normalized to Ideal while the
// number of cache lines committed per transaction sweeps from one line
// toward a page. Its cells share no traces with other figures, so it
// runs outside any session, building each cell's traces inside the cell
// to bound peak memory. It returns the first write error.
func Fig16(sc Scale, w io.Writer) (Fig16Result, error) {
	res := Fig16Result{TxLines: sc.Fig16Lines, Overhead: make(map[string][]float64)}

	// Each (workload, tx size) cell is fully self-contained: it builds
	// its own traces (the transaction batching changes the trace itself)
	// and runs the Ideal/SCA pair over them.
	ws := workloads.All()
	type cell struct {
		w     workloads.Workload
		lines int
	}
	var cells []cell
	for _, w := range ws {
		for _, lines := range sc.Fig16Lines {
			cells = append(cells, cell{w, lines})
		}
	}
	ratios, err := runner.MapValues(context.Background(), cells,
		func(_ context.Context, c cell) (float64, error) {
			p := sc.ParamsFor(c.w.Name())
			p.OpsPerTx = max(1, c.lines/linesPerOp[c.w.Name()])
			// Keep the number of transactions roughly constant so
			// the commit-cost amortization is what varies.
			p.Ops = p.OpsPerTx * max(16, sc.Params.Ops/8)
			traces := crash.BuildTraces(c.w, p, 1)

			ideal, err := simulate(&machine.Spec{Engine: "ideal"}, c.w.Name(), traces)
			if err != nil {
				return 0, err
			}
			sca, err := simulate(&machine.Spec{Engine: "sca"}, c.w.Name(), traces)
			if err != nil {
				return 0, err
			}
			return float64(sca.runtime) / float64(ideal.runtime), nil
		},
		sc.cellOpts(func(i int) string {
			return fmt.Sprintf("fig16/%s/%dL", cells[i].w.Name(), cells[i].lines)
		}))
	if err != nil {
		return res, err
	}

	out := &errWriter{w: w}
	header(out, "Figure 16: SCA runtime normalized to Ideal vs transaction size (lower is better)")
	fmt.Fprintf(out, "%-12s", "workload")
	for _, lines := range sc.Fig16Lines {
		fmt.Fprintf(out, " %7dL", lines)
	}
	fmt.Fprintln(out)

	for wi, w := range ws {
		res.Workloads = append(res.Workloads, w.Name())
		fmt.Fprintf(out, "%-12s", w.Name())
		for li := range sc.Fig16Lines {
			ratio := ratios[wi*len(sc.Fig16Lines)+li]
			res.Overhead[w.Name()] = append(res.Overhead[w.Name()], ratio)
			fmt.Fprintf(out, " %8.3f", ratio)
		}
		fmt.Fprintln(out)
	}
	return res, out.err
}
