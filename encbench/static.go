package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"encnvm/internal/check"
	"encnvm/internal/check/prune"
	"encnvm/internal/check/verify"
	"encnvm/internal/crash"
	"encnvm/internal/persist"
	"encnvm/internal/runner"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// staticResult is what one pass of the static oracles counted.
type staticResult struct {
	wall, setup time.Duration
	ops         int
	classes     int
}

// staticOnce generates every workload trace in both transaction modes
// (its set-up), then lints, verifies, partitions and checks each one,
// spread over the workers. A trace fails on any lint diagnostic, any
// verifier violation, or a partition that fails its own check.
func staticOnce(cfg settings, tr *tracer, t *tally) staticResult {
	type input struct {
		req string
		tr  *trace.Trace
	}
	start := time.Now()
	var inputs []input
	for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
		for _, w := range workloads.All() {
			p := workloads.Params{Seed: cfg.seed, Items: cfg.staticItems, Ops: cfg.staticOps, OpsPerTx: 1, TxMode: mode}
			req := w.Name() + "/" + mode.String()
			tr.do("static.trace", req, -1, func() {
				inputs = append(inputs, input{req, crash.BuildTraces(w, p, 1)[0]})
			})
		}
	}
	res := staticResult{setup: time.Since(start)}
	arenas := []persist.Arena{persist.ArenaFor(0, crash.DefaultArena)}
	popts := prune.Options{Arenas: arenas}
	rs := runner.Map(context.Background(), inputs, func(_ context.Context, in input) (int, error) {
		var (
			diags []check.Diagnostic
			vres  verify.Result
			part  *prune.Partition
			err   error
		)
		tr.do("check.lint", in.req, -1, func() { diags = check.Check(in.tr, check.Options{Arenas: arenas}) })
		tr.do("verify.verify", in.req, -1, func() { vres = verify.Verify(in.tr, verify.Options{Arenas: arenas}) })
		tr.do("prune.compute", in.req, -1, func() { part, err = prune.Compute(in.tr, popts) })
		if err != nil {
			return 0, err
		}
		tr.do("prune.check", in.req, -1, func() { err = prune.Check(in.tr, part, popts) })
		switch {
		case err != nil:
			return 0, err
		case len(diags) > 0:
			return 0, fmt.Errorf("%d lint diagnostics, first %v", len(diags), diags[0])
		case !vres.Clean():
			return 0, fmt.Errorf("%d verifier violations, first %v", len(vres.Violations), vres.Violations[0])
		}
		return len(part.Classes), nil
	}, runner.Options{Workers: cfg.workers})
	for i, r := range rs {
		res.ops += inputs[i].tr.Len()
		if r.Err != nil {
			t.fail("static %s: %v", inputs[i].req, r.Err)
			continue
		}
		res.classes += r.Value
		t.ok(1)
	}
	res.wall = time.Since(start)
	return res
}

// staticLoop is the untraced static workload.
func staticLoop(cfg settings, log io.Writer) (map[string]metric, tally) {
	var (
		t                       tally
		wall, setup, perS, allc samples
		first                   staticResult
	)
	repeat(cfg.budget, cfg.minReps, func() {
		a0 := totalAlloc()
		r := staticOnce(cfg, nil, &t)
		allc = append(allc, mb(totalAlloc()-a0))
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		perS = append(perS, float64(r.ops)/(r.wall-r.setup).Seconds())
		if len(wall) == 1 {
			first = r
		} else if r.ops != first.ops || r.classes != first.classes {
			t.fail("static: counts changed between repetitions: ops %d then %d, classes %d then %d",
				first.ops, r.ops, first.classes, r.classes)
		}
	})
	fmt.Fprintf(log, "static counts: ops=%d classes=%d\n", first.ops, first.classes)
	logSamples(log, "static", map[string]samples{"wall_s": wall, "setup_s": setup, "points_per_s": perS, "alloc_mb": allc})
	return endToEnd(wall, setup, perS, allc), t
}
