package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/ctrenc"
	"encnvm/internal/exp"
	"encnvm/internal/mem"
	"encnvm/internal/replay"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// figures lists every exp call in cmd/experiments order.
var figures = []struct {
	name string
	fn   func(sc exp.Scale, out io.Writer) error
}{
	{"table2", func(_ exp.Scale, out io.Writer) error { return exp.Table2(out) }},
	{"table1", func(_ exp.Scale, out io.Writer) error { return exp.Table1(out) }},
	{"fig4", func(sc exp.Scale, out io.Writer) error {
		res, err := exp.Fig4(sc, out)
		if err == nil && res.SCAFailures != 0 {
			err = fmt.Errorf("SCA sweep has %d inconsistent crash points", res.SCAFailures)
		}
		return err
	}},
	{"fig8", func(_ exp.Scale, out io.Writer) error { _, err := exp.Fig8(out); return err }},
	{"fig12", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig12(sc, out); return err }},
	{"fig13", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig13(sc, out); return err }},
	{"fig14", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig14(sc, out); return err }},
	{"fig15", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig15(sc, out); return err }},
	{"fig16", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig16(sc, out); return err }},
	{"fig17", func(sc exp.Scale, out io.Writer) error { _, err := exp.Fig17(sc, out); return err }},
	{"lifetime", func(sc exp.Scale, out io.Writer) error { _, err := exp.Lifetime(sc, out); return err }},
	{"osiris", func(sc exp.Scale, out io.Writer) error { _, err := exp.Osiris(sc, out); return err }},
	{"integrity", func(sc exp.Scale, out io.Writer) error { _, err := exp.Integrity(sc, out); return err }},
}

// figuresOnce runs every figure and checks each one's output against its
// slice of the golden stdout, when the run has one. Its set-up is
// generating the traces the figure grids replay; the exp calls build
// their own copies, so the benchmark times the generation as a step of
// its own.
func figuresOnce(cfg settings, tr *tracer, t *tally) (wall, setup time.Duration) {
	sc := cfg.scale
	sc.Jobs = cfg.workers
	start := time.Now()
	cores := sc.Cores[len(sc.Cores)-1]
	for _, w := range workloads.All() {
		tr.do("figures.trace", w.Name(), -1, func() { crash.BuildTraces(w, sc.ParamsFor(w.Name()), cores) })
	}
	setup = time.Since(start)
	off := 0
	for _, f := range figures {
		var (
			buf bytes.Buffer
			err error
		)
		tr.do("exp."+f.name, f.name, -1, func() { err = f.fn(sc, &buf) })
		g := cfg.golden
		switch {
		case err != nil:
			t.fail("figures: %s: %v", f.name, err)
		case g != nil && (off > len(g) || !bytes.HasPrefix(g[off:], buf.Bytes())):
			t.fail("figures: %s output differs from the golden stdout", f.name)
		default:
			t.ok(1)
		}
		off += buf.Len()
	}
	if cfg.golden != nil && off != len(cfg.golden) {
		t.fail("figures: stdout is %d bytes, the golden %d", off, len(cfg.golden))
	}
	return time.Since(start), setup
}

// figuresLoop is the untraced figures workload.
func figuresLoop(cfg settings, log io.Writer) (map[string]metric, tally) {
	var (
		t                       tally
		wall, setup, perS, allc samples
	)
	repeat(cfg.budget, cfg.minReps, func() {
		a0 := totalAlloc()
		w, s := figuresOnce(cfg, nil, &t)
		allc = append(allc, mb(totalAlloc()-a0))
		wall = append(wall, w.Seconds())
		setup = append(setup, s.Seconds())
		perS = append(perS, float64(len(figures))/(w-s).Seconds())
	})
	logSamples(log, "figures", map[string]samples{"wall_s": wall, "setup_s": setup, "points_per_s": perS, "alloc_mb": allc})
	return endToEnd(wall, setup, perS, allc), t
}

// gridCounts are the simulated counters the replay grid sums.
var gridCounts = []string{
	stats.L1Hits, stats.L1Misses, stats.L2Hits, stats.L2Misses,
	stats.CounterCacheHits, stats.CounterCacheMiss, stats.CounterCacheWB,
	stats.CAWrites, stats.WriteQueueStalls, stats.ReadyBitWaits,
	stats.Reads, stats.DataWrites, stats.CounterWrites,
}

// tracedGrid replays every workload under every figure design at the
// quick scale on one core, with spans around trace generation, machine
// build and replay, then drives the cache and the encryption engine with
// the grid's own addresses. It returns the grid's per-layer metrics.
func tracedGrid(cfg settings, tr *tracer, t *tally) map[string]metric {
	sc := cfg.scale
	counts := map[string]uint64{}
	var (
		events        uint64
		simNS, fenceW float64
		accesses      []trace.Op
		bytesWritten  uint64
	)
	for _, w := range workloads.All() {
		var traces []*trace.Trace
		tr.do("grid.workloads.build", w.Name(), -1, func() { traces = crash.BuildTraces(w, sc.ParamsFor(w.Name()), 1) })
		for _, op := range traces[0].Ops {
			if op.Kind == trace.Read || op.Kind == trace.Write {
				accesses = append(accesses, op)
			}
		}
		for _, d := range config.AllDesigns {
			req := w.Name() + "/" + d.String()
			var (
				sys *replay.System
				err error
			)
			tr.do("grid.machine.build", req, -1, func() { sys, err = replay.New(config.Default(d), traces) })
			if err != nil {
				t.fail("grid %s: %v", req, err)
				continue
			}
			sys.Dev.Image().SetRetainLog(false)
			tr.do("grid.replay.run", req, -1, func() { simNS += sys.Run().Nanoseconds() })
			t.ok(1)
			events += sys.Eng.Steps()
			for _, c := range gridCounts {
				counts[c] += sys.St.Count(c)
			}
			bytesWritten += sys.St.TotalBytesWritten()
			fenceW += sys.St.Time("core.fence_wait").Nanoseconds()
		}
	}
	run := tr.total("grid.replay.run")
	m := map[string]metric{
		"grid.workloads.build_ms":  {ms(tr.total("grid.workloads.build")), "ms"},
		"grid.machine.build_ms":    {ms(tr.total("grid.machine.build")), "ms"},
		"grid.replay.run_ms":       {ms(run), "ms"},
		"grid.replay.events":       {float64(events), "count"},
		"grid.replay.ns_per_event": {float64(run.Nanoseconds()) / float64(events), "ns"},
		"cache.access_ns":          {cacheAccessNS(accesses), "ns"},
		"ctrenc.encrypt_ns":        {encryptNS(accesses), "ns"},
		"nvm.bytes_written":        {float64(bytesWritten), "bytes"},
		"core.fence_wait_ns":       {fenceW, "sim_ns"},
		"sim.runtime_ns":           {simNS, "sim_ns"},
	}
	for _, c := range gridCounts {
		m[c] = metric{float64(counts[c]), "count"}
	}
	return m
}

// microRounds is how many passes the cache and encryption loops make
// over the grid's accesses, so each times a few million calls.
const microRounds = 16

// cacheAccessNS drives an L1-sized cache with the grid's loads and
// stores and returns host nanoseconds per access.
func cacheAccessNS(ops []trace.Op) float64 {
	c := cache.New(config.Default(config.SCA).L1)
	start := time.Now()
	for r := 0; r < microRounds; r++ {
		for _, op := range ops {
			c.Access(op.Addr, op.Kind == trace.Write)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(microRounds*len(ops))
}

// encryptSink keeps the encryption loop's result alive.
var encryptSink mem.Line

// encryptNS encrypts every stored line of the grid under a running
// counter and returns host nanoseconds per line.
func encryptNS(ops []trace.Op) float64 {
	e := ctrenc.NewDefault()
	n := 0
	start := time.Now()
	for r := 0; r < microRounds; r++ {
		for _, op := range ops {
			if op.Kind == trace.Write {
				encryptSink = e.Encrypt(op.Line, op.Addr, uint64(n))
				n++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
