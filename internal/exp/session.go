package exp

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/runner"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Session is one experiments invocation's single source of simulation
// results. Figures are views over it: a cell — a machine, a workload
// and its trace parameters — is simulated at most once per session, and
// every later request for the same cell, from the same figure or
// another, reads the memoized result. Fig. 14 is Fig. 12's runs
// measured in bytes, and Lifetime, Osiris and Integrity reread columns
// of the same grid, so a session that runs them all simulates each
// shared cell once.
//
// A session is safe for concurrent use. Results live as long as the
// session; traces are released when the grid that built them returns,
// so a figure never holds more trace sets than its own grid needs.
type Session struct {
	sc Scale

	// mu guards the two maps. It is never held across a build, a
	// simulation or a wait: entries are created under it and filled
	// through their own sync.Once outside it.
	mu        sync.Mutex
	cells     map[cell]*cellEntry
	traceSets map[traceKey]*traceSet
}

// NewSession returns an empty session at scale sc. Results depend only
// on the cells, never on sc.Jobs or sc.Progress.
func NewSession(sc Scale) *Session {
	return &Session{sc: sc, cells: make(map[cell]*cellEntry), traceSets: make(map[traceKey]*traceSet)}
}

// cell names one simulation. With its spec resolved it is the memo
// key, so specs that resolve equal — {Engine: "colocated"} and
// {Engine: "colocated", ReadLatencyX: 1} — are one cell. The spec's
// core count selects the trace prefix the cell replays.
type cell struct {
	spec     machine.Spec
	workload string
	params   workloads.Params
}

// cellResult is what the memo keeps of a run: the measurements the
// figures read, never the machine, which is garbage once the run ends.
type cellResult struct {
	runtime      sim.Time // measured (transaction-phase) runtime
	throughput   float64
	bytesWritten uint64
	stats        *stats.Stats
	// The device's wear: lines written, total line writes, and writes
	// to the hottest line.
	wearLines              int
	wearTotal, wearHottest uint64
}

type cellEntry struct {
	once sync.Once
	res  cellResult
	err  error
}

// traceKey names one workload's trace sets; the n-core set is the
// n-prefix of any larger one, because core i's trace depends only on
// (workload, params, i).
type traceKey struct {
	workload string
	params   workloads.Params
}

type traceSet struct {
	once   sync.Once
	cores  int
	traces []*trace.Trace
}

// result returns c's measurements, simulating it on the session's first
// request and waiting for that simulation on concurrent ones. On a miss
// it replays the workload's traces, built for traceCores cores if the
// session holds none that large. Computing a cell never requests
// another cell, so waiters cannot form a cycle.
func (s *Session) result(c cell, traceCores int) (cellResult, error) {
	r, err := c.spec.Resolved()
	if err != nil {
		return cellResult{}, err
	}
	c.spec = *r
	s.mu.Lock()
	e := s.cells[c]
	if e == nil {
		e = new(cellEntry)
		s.cells[c] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		// Stands if the simulation panics, so later requests fail
		// instead of reading a zero result.
		e.err = fmt.Errorf("exp: %s on %s did not complete", c.workload, c.spec.Name)
		w, err := workloads.ByName(c.workload)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = simulate(&c.spec, c.workload, s.traces(w, c.params, max(traceCores, c.spec.Cores))[:c.spec.Cores])
	})
	return e.res, e.err
}

// traces returns cores of w's traces under p: a prefix of the largest
// set the session holds, built once if it holds none that large.
func (s *Session) traces(w workloads.Workload, p workloads.Params, cores int) []*trace.Trace {
	k := traceKey{w.Name(), p}
	s.mu.Lock()
	e := s.traceSets[k]
	if e == nil || e.cores < cores {
		e = &traceSet{cores: cores}
		s.traceSets[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.traces = crash.BuildTraces(w, p, e.cores) })
	return e.traces[:cores]
}

// simulate replays traces on the machine spec describes and keeps what
// the figures read. It is the one place a figure cell is simulated.
func simulate(spec *machine.Spec, workload string, traces []*trace.Trace) (cellResult, error) {
	r, err := core.Run(spec, workload, trace.Sources(traces), nil)
	if err != nil {
		return cellResult{}, err
	}
	res := cellResult{runtime: r.Runtime, throughput: r.Throughput, bytesWritten: r.BytesWritten, stats: r.Stats}
	res.wearLines, res.wearTotal, res.wearHottest = r.System.Dev.Wear()
	return res, nil
}

// grid requests a figure's cells over the runner and returns their
// results in request order, so output is identical for every Jobs
// value. Traces are built for the grid's largest core count, so every
// smaller count replays a prefix of one set, and are released when the
// grid returns.
//
// Cells are dispatched round-robin over their trace sets, so the first
// Jobs misses start different sets' builds instead of queueing on one.
func (s *Session) grid(fig string, cells []cell) ([]cellResult, error) {
	cores := 1
	order := make([]int, len(cells))
	rank := make([]int, len(cells)) // cell i is its set's rank[i]-th cell
	sets := make(map[traceKey]int)  // cells seen per trace set
	for i, c := range cells {
		cores = max(cores, c.spec.Cores)
		order[i] = i
		k := traceKey{c.workload, c.params}
		rank[i] = sets[k]
		sets[k]++
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank[a] - rank[b] })
	defer func() {
		s.mu.Lock()
		for k := range sets {
			delete(s.traceSets, k)
		}
		s.mu.Unlock()
	}()
	done := runner.Map(context.Background(), order,
		func(_ context.Context, i int) (cellResult, error) { return s.result(cells[i], cores) },
		s.sc.cellOpts(func(j int) string {
			c := cells[order[j]]
			// A spec of strings and finite numbers always encodes.
			spec, _ := json.Marshal(c.spec)
			return fmt.Sprintf("%s/%s/items=%d/%s", fig, c.workload, c.params.Items, spec)
		}))
	rs, errs := make([]cellResult, len(cells)), make([]error, len(cells))
	for j, r := range done {
		rs[order[j]], errs[order[j]] = r.Value, r.Err
	}
	// The first error in request order, as a sequential loop reports it.
	return rs, cmp.Or(errs...)
}

// perWorkload requests every workload on each engine, one core, at the
// scale's parameters; results are workload-major.
func (s *Session) perWorkload(fig string, engines []string) ([]cellResult, error) {
	var cells []cell
	for _, w := range workloads.All() {
		for _, e := range engines {
			cells = append(cells, cell{machine.Spec{Engine: e}, w.Name(), s.sc.ParamsFor(w.Name())})
		}
	}
	return s.grid(fig, cells)
}
