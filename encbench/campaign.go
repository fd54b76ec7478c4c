package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/prune"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/runner"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// The campaign workload: crashtest's defaults on the SCA machine.
const (
	campaignSpec     = "sca"
	campaignWorkload = "btree"
)

func campaignInputs(cfg settings) (*machine.Spec, workloads.Workload, workloads.Params, error) {
	spec, err := machine.ByName(campaignSpec)
	if err != nil {
		return nil, nil, workloads.Params{}, err
	}
	w, err := workloads.ByName(campaignWorkload)
	if err != nil {
		return nil, nil, workloads.Params{}, err
	}
	return spec, w, workloads.Params{Seed: cfg.seed, Items: cfg.campaignItems, Ops: cfg.campaignOps}, nil
}

// campaignRep is one timed, untraced campaign.
type campaignRep struct {
	run   *crash.CampaignRun
	wall  time.Duration
	setup time.Duration
	alloc uint64
}

// timeCampaign runs one pruned campaign and measures its set-up from
// outside: the first cell's completion minus that cell's own wall time.
// haltAfter > 0 stops the campaign after that many cells, which is how a
// run takes extra set-up samples cheaply.
func timeCampaign(cfg settings, haltAfter int) (campaignRep, error) {
	spec, w, p, err := campaignInputs(cfg)
	if err != nil {
		return campaignRep{}, err
	}
	var (
		start     time.Time
		setup     time.Duration
		firstSeen bool
	)
	onDone := func(pr runner.Progress) {
		if !firstSeen {
			firstSeen = true
			setup = time.Since(start) - pr.Wall
		}
	}
	a0 := totalAlloc()
	start = time.Now()
	run, err := crash.RunCampaign(spec, w, p, crash.CampaignOptions{
		Workers: cfg.workers, Pruned: true, HaltAfter: haltAfter, OnDone: onDone,
	})
	wall := time.Since(start)
	alloc := totalAlloc() - a0
	if haltAfter > 0 && errors.Is(err, crash.ErrCampaignHalted) {
		err = nil
	}
	if err == nil && !firstSeen {
		err = fmt.Errorf("campaign completed no cell")
	}
	return campaignRep{run: run, wall: wall, setup: setup, alloc: alloc}, err
}

// checkCampaign tallies a campaign's crash points: every point must be
// consistent, and the points must be the trace's ops + 1.
func checkCampaign(run *crash.CampaignRun, t *tally) {
	c := run.Campaign
	if c.CrashPoints != c.Ops+1 || len(run.Report.Results) != c.CrashPoints {
		t.fail("campaign: %d crash points and %d results for %d ops", c.CrashPoints, len(run.Report.Results), c.Ops)
		return
	}
	bad := len(run.Report.Failures())
	t.ok(c.CrashPoints - bad)
	for _, f := range run.Report.Failures() {
		t.fail("campaign: crash at %v inconsistent: %s", f.CrashAt, f.Error)
	}
}

// campaignLoop is the untraced campaign workload.
func campaignLoop(cfg settings, log io.Writer) (map[string]metric, tally) {
	var (
		t                       tally
		wall, setup, perS, allc samples
		counts                  string
	)
	repeat(cfg.budget, cfg.minReps, func() {
		r, err := timeCampaign(cfg, 0)
		if err != nil {
			t.fail("campaign: %v", err)
			return
		}
		checkCampaign(r.run, &t)
		points := r.run.Campaign.CrashPoints
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		perS = append(perS, float64(points)/(r.wall-r.setup).Seconds())
		allc = append(allc, mb(r.alloc))
		c := campaignCounts(r.run)
		if counts != "" && c != counts {
			t.fail("campaign: counts changed between repetitions: %s vs %s", counts, c)
		}
		counts = c
	})
	for len(setup) < cfg.setupSamples && t.failed == 0 {
		r, err := timeCampaign(cfg, 1)
		if err != nil {
			t.fail("campaign set-up: %v", err)
			break
		}
		setup = append(setup, r.setup.Seconds())
	}
	fmt.Fprintf(log, "campaign counts: %s\n", counts)
	logSamples(log, "campaign", map[string]samples{"wall_s": wall, "setup_s": setup, "points_per_s": perS, "alloc_mb": allc})
	return endToEnd(wall, setup, perS, allc), t
}

// campaignCounts renders the campaign's deterministic class counts.
func campaignCounts(run *crash.CampaignRun) string {
	c := run.Campaign
	return fmt.Sprintf("ops=%d points=%d classes=%d cells=%d simulated=%d pruned=%d violations=%d",
		c.Ops, c.CrashPoints, c.Classes, c.Cells, c.Simulated, c.Pruned, c.ViolationPoints)
}

// cell is one epoch-refined campaign cell: gaps [lo, hi) share the
// verdict of representative gap lo.
type cell struct {
	index, lo, hi int
}

// refine splits the static classes at persist-epoch instants exactly as
// a pruned campaign does; the traced run checks the cell count against
// the untraced campaign's report.
func refine(part *prune.Partition, deadlines, epochs []sim.Time) []cell {
	between := func(a, b sim.Time) bool {
		i := sort.Search(len(epochs), func(i int) bool { return epochs[i] > a })
		return i < len(epochs) && epochs[i] <= b
	}
	var cells []cell
	for _, cl := range part.Classes {
		lo := cl.Gaps[0]
		for k := cl.Gaps[0]; k+1 < cl.Gaps[1]; k++ {
			if between(deadlines[k], deadlines[k+1]) {
				cells = append(cells, cell{len(cells), lo, k + 1})
				lo = k + 1
			}
		}
		cells = append(cells, cell{len(cells), lo, cl.Gaps[1]})
	}
	return cells
}

// verdict is what one re-driven injection decided.
type verdict struct {
	consistent       bool
	lostCounterLines int
	recoveredEntries int
	events           uint64
}

// inject re-drives one crash injection through the public steps the
// crash harness takes, one span per step. The oracle decrypts each
// write with the counter recorded beside it, as the harness does.
func inject(tr *tracer, req string, spec *machine.Spec, w workloads.Workload,
	traces []*trace.Trace, at sim.Time) (verdict, error) {

	root := tr.begin("crash.inject", req, -1)
	defer tr.end(root)
	var (
		sys *replay.System
		err error
		v   verdict
	)
	tr.do("machine.build", req, root, func() { sys, err = replay.NewSpec(spec, traces) })
	if err != nil {
		return v, err
	}
	var t sim.Time
	tr.do("replay.prefix", req, root, func() { t = sys.RunUntil(at) })
	v.events = sys.Eng.Steps()
	tr.do("crash.drain", req, root, func() { sys.MC.DrainADR(t) })
	v.lostCounterLines = len(sys.MC.DirtyCounterLines())
	var writes map[mem.Addr]mem.Write
	tr.do("crash.snapshot", req, root, func() { writes = sys.Dev.Image().SnapshotWritesAt(t) })
	var space *mem.Space
	tr.do("engines.recover", req, root, func() {
		space, _ = sys.Meta.Recover(sys.Cfg, sys.MC.Layout(), sys.MC.Encryption(), writes)
	})
	var oracle *mem.Space
	tr.do("crash.oracle", req, root, func() {
		lay, enc := sys.MC.Layout(), sys.MC.Encryption()
		oracle = mem.NewSpace()
		for addr, wr := range writes {
			switch {
			case !lay.IsData(addr):
			case enc == nil:
				oracle.WriteLine(addr, wr.Data)
			default:
				oracle.WriteLine(addr, enc.Decrypt(wr.Data, addr, wr.Tag))
			}
		}
	})
	v.consistent = true
	for i := range traces {
		arena := persist.ArenaFor(i, crash.DefaultArena)
		tr.do("persist.recover", req, root, func() {
			v.recoveredEntries += persist.Recover(space, arena).ValidEntries
			persist.Recover(oracle, arena)
		})
		tr.do("workloads.validate", req, root, func() {
			if e := w.Validate(oracle, arena); e != nil {
				err = fmt.Errorf("oracle inconsistent at %v: %w", t, e)
				return
			}
			if w.Validate(space, arena) != nil || (w.Published(oracle, arena) && !w.Published(space, arena)) {
				v.consistent = false
			}
		})
		if err != nil || !v.consistent {
			break
		}
	}
	return v, err
}

// tracedCampaign re-drives every cell of the campaign base ran, with a
// span around each call into a layer, and checks each re-driven verdict
// against base's report row for the same crash point. It returns the
// campaign's per-layer metrics.
func tracedCampaign(cfg settings, tr *tracer, base campaignRep) (map[string]metric, tally) {
	var t tally
	spec, w, p, err := campaignInputs(cfg)
	if err != nil {
		t.fail("campaign: %v", err)
		return nil, t
	}
	start := time.Now()
	var traces []*trace.Trace
	tr.do("campaign.trace", "setup", -1, func() { traces = crash.BuildTraces(w, p, 1) })

	var (
		probe     *replay.System
		epochs    []sim.Time
		deadlines []sim.Time
	)
	tr.do("campaign.probe", "setup", -1, func() {
		if probe, err = replay.NewSpec(spec, traces); err != nil {
			return
		}
		probe.RecordRetireTimes()
		probe.MC.SetPersistEpochSink(func(t sim.Time) {
			if n := len(epochs); n == 0 || epochs[n-1] != t {
				epochs = append(epochs, t)
			}
		})
		probe.Start()
		probe.Eng.Run()
		deadlines = append([]sim.Time{0}, probe.RetireTimes(0)...)
	})
	if err != nil {
		t.fail("campaign probe: %v", err)
		return nil, t
	}
	popts := prune.Options{
		Arenas: []persist.Arena{persist.ArenaFor(0, crash.DefaultArena)},
		Model:  enginecheck.ModelFor(probe.Meta, probe.Cfg),
	}
	var part *prune.Partition
	tr.do("campaign.prune_compute", "setup", -1, func() { part, err = prune.Compute(traces[0], popts) })
	if err == nil {
		tr.do("campaign.prune_check", "setup", -1, func() { err = prune.Check(traces[0], part, popts) })
	}
	if err != nil {
		t.fail("campaign partition: %v", err)
		return nil, t
	}
	// The campaign fingerprints the partition for its checkpoint header.
	tr.do("campaign.partition_hash", "setup", -1, func() { part.Hash() })
	cells := refine(part, deadlines, epochs)
	if len(cells) != base.run.Report.Cells || len(deadlines) != len(base.run.Report.Results) {
		t.fail("campaign: traced run has %d cells over %d points, untraced %d over %d",
			len(cells), len(deadlines), base.run.Report.Cells, len(base.run.Report.Results))
		return nil, t
	}

	var (
		mu        sync.Mutex
		cellWall  time.Duration
		straggler time.Duration
	)
	sweepStart := time.Now()
	rs := runner.Map(context.Background(), cells,
		func(_ context.Context, c cell) (verdict, error) {
			return inject(tr, fmt.Sprintf("cell%d", c.index), spec, w, traces, deadlines[c.lo])
		},
		runner.Options{Workers: cfg.workers, OnDone: func(pr runner.Progress) {
			mu.Lock()
			defer mu.Unlock()
			cellWall += pr.Wall
			if pr.Wall > straggler {
				straggler = pr.Wall
			}
		}})
	sweep := time.Since(sweepStart)
	wall := time.Since(start)

	var events uint64
	for i, r := range rs {
		c := cells[i]
		want := base.run.Report.Results[c.lo]
		switch v := r.Value; {
		case r.Err != nil:
			t.fail("campaign cell %d: %v", c.index, r.Err)
		case v.consistent != want.Consistent() || v.lostCounterLines != want.LostCounterLines ||
			v.recoveredEntries != want.RecoveredEntries:
			t.fail("campaign cell %d (gap %d): traced verdict %+v, untraced %+v", c.index, c.lo, v, want)
		case !v.consistent:
			t.fail("campaign cell %d (gap %d): inconsistent", c.index, c.lo)
		default:
			t.ok(1)
			events += v.events
		}
	}

	// Machine builds allocate the same bytes every time; time-sharing
	// workers would blur a per-call allocation count, so measure it on
	// its own.
	const builds = 8
	a0 := totalAlloc()
	for i := 0; i < builds; i++ {
		if _, err := replay.NewSpec(spec, traces); err != nil {
			t.fail("campaign build: %v", err)
			break
		}
	}
	perBuild := float64(totalAlloc()-a0) / builds

	points := len(deadlines)
	workers := cfg.workers
	if workers > len(cells) {
		workers = len(cells)
	}
	m := map[string]metric{
		"campaign.trace_ms":         {ms(tr.total("campaign.trace")), "ms"},
		"campaign.probe_ms":         {ms(tr.total("campaign.probe")), "ms"},
		"campaign.prune_compute_ms": {ms(tr.total("campaign.prune_compute")), "ms"},
		"campaign.prune_check_ms":   {ms(tr.total("campaign.prune_check")), "ms"},
		"campaign.hash_ms":          {ms(tr.total("campaign.partition_hash")), "ms"},
		"campaign.classes":          {float64(len(part.Classes)), "count"},
		"campaign.trace_overhead_s": {(wall - base.wall).Seconds(), "s"},
		"machine.build_ms":          {ms(tr.total("machine.build")), "ms"},
		"machine.build_alloc_mb":    {perBuild * float64(len(cells)) / (1 << 20), "MB"},
		"replay.prefix_ms":          {ms(tr.total("replay.prefix")), "ms"},
		"replay.prefix_events":      {float64(events), "count"},
		"crash.drain_ms":            {ms(tr.total("crash.drain")), "ms"},
		"crash.snapshot_ms":         {ms(tr.total("crash.snapshot")), "ms"},
		"engines.recover_ms":        {ms(tr.total("engines.recover")), "ms"},
		"crash.oracle_ms":           {ms(tr.total("crash.oracle")), "ms"},
		"persist.recover_ms":        {ms(tr.total("persist.recover")), "ms"},
		"workloads.validate_ms":     {ms(tr.total("workloads.validate")), "ms"},
		"crash.points":              {float64(points), "count"},
		"crash.injections":          {float64(len(cells)), "count"},
		"crash.pruned_frac":         {1 - float64(len(cells))/float64(points), "frac"},
		"crash.injections_per_s":    {float64(len(cells)) / sweep.Seconds(), "1/s"},
		"runner.utilization":        {cellWall.Seconds() / (float64(workers) * sweep.Seconds()), "frac"},
		"runner.straggler_ms":       {ms(straggler), "ms"},
	}
	return m, t
}
