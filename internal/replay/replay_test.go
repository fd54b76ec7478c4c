package replay

import (
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
)

func lineOf(b byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = b
	}
	return l
}

// simpleTrace writes n lines, clwbs them, fences, and commits a tx.
func simpleTrace(base mem.Addr, n int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.TxBegin})
	for i := 0; i < n; i++ {
		a := base + mem.Addr(i*64)
		tr.Append(trace.Op{Kind: trace.Write, Addr: a, Line: lineOf(byte(i + 1))})
		tr.Append(trace.Op{Kind: trace.Clwb, Addr: a})
	}
	tr.Append(trace.Op{Kind: trace.CCWB, Addr: base})
	tr.Append(trace.Op{Kind: trace.Sfence})
	tr.Append(trace.Op{Kind: trace.TxEnd})
	return tr
}

func runOne(t *testing.T, d config.Design, trs ...*trace.Trace) (*System, sim.Time) {
	t.Helper()
	sys, err := NewSpec(designSpec(t, d, len(trs)), trs)
	if err != nil {
		t.Fatal(err)
	}
	rt := sys.Run()
	return sys, rt
}

// designSpec returns the built-in spec for design d on the given number
// of cores.
func designSpec(t *testing.T, d config.Design, cores int) *machine.Spec {
	t.Helper()
	spec, err := machine.SpecForDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cores = cores
	return spec
}

// decrypt reads a line from the final image through the design's
// decryption path, as recovery would.
func decrypt(sys *System, addr mem.Addr) (mem.Line, bool) {
	ct, ok := sys.Dev.Image().Read(addr)
	if !ok {
		return mem.Line{}, false
	}
	if !sys.Meta.Encrypted {
		return ct, true
	}
	lay := sys.MC.Layout()
	cl, _ := sys.Dev.Image().Read(lay.CounterLine(addr))
	ctr := ctrenc.UnpackCounterLine(cl)[lay.CounterSlot(addr)]
	return sys.MC.Encryption().Decrypt(ct, addr, ctr), true
}

func TestTraceCountMismatch(t *testing.T) {
	if _, err := NewSpec(designSpec(t, config.SCA, 1), []*trace.Trace{{}, {}}); err == nil {
		t.Fatal("2 traces on 1 core accepted")
	}
}

func TestRunCompletesAndPersists(t *testing.T) {
	for _, d := range config.AllDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sys, rt := runOne(t, d, simpleTrace(0, 4))
			if rt == 0 {
				t.Fatal("zero runtime")
			}
			if sys.Transactions() != 1 {
				t.Fatalf("transactions = %d", sys.Transactions())
			}
			for i := 0; i < 4; i++ {
				a := mem.Addr(i * 64)
				got, ok := decrypt(sys, a)
				if !ok {
					t.Fatalf("line %d missing from final image", i)
				}
				if got != lineOf(byte(i+1)) {
					t.Fatalf("line %d corrupt after %v run", i, d)
				}
			}
		})
	}
}

func TestPlainImageTracksStores(t *testing.T) {
	sys, _ := runOne(t, config.SCA, simpleTrace(0, 2))
	if sys.Plain().ReadLine(0) != lineOf(1) || sys.Plain().ReadLine(64) != lineOf(2) {
		t.Fatal("plaintext image does not match stores")
	}
}

func TestSfenceWaitsForClwb(t *testing.T) {
	// A trace with a write+clwb+sfence must take at least the crypto
	// latency (acceptance includes enqueue; writes are accepted fast,
	// but runtime must exceed pure cache-hit time).
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1)})
	tr.Append(trace.Op{Kind: trace.Clwb, Addr: 0})
	tr.Append(trace.Op{Kind: trace.Sfence})
	_, rt := runOne(t, config.SCA, tr)

	trNoFence := &trace.Trace{}
	trNoFence.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1)})
	_, rtNoFence := runOne(t, config.SCA, trNoFence)
	if rt <= rtNoFence {
		t.Fatalf("fenced run (%v) not slower than unfenced (%v)", rt, rtNoFence)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Compute, Cycles: 4000}) // 1us at 4GHz
	_, rt := runOne(t, config.NoEncryption, tr)
	if rt != sim.Microsecond {
		t.Fatalf("runtime = %v, want 1us", rt)
	}
}

func TestReadsHitAfterWrite(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0x100, Line: lineOf(5)})
	tr.Append(trace.Op{Kind: trace.Read, Addr: 0x100})
	sys, _ := runOne(t, config.SCA, tr)
	if sys.St.Count(stats.L1Hits) == 0 {
		t.Fatal("read after write missed L1")
	}
}

func TestColdReadGoesToMemory(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Read, Addr: 0x4000})
	sys, rt := runOne(t, config.NoEncryption, tr)
	if sys.St.Count(stats.L2Misses) != 1 {
		t.Fatal("cold read did not miss L2")
	}
	if rt < 60*sim.Nanosecond {
		t.Fatalf("cold read runtime %v too fast for PCM", rt)
	}
}

func TestCounterAtomicTagPropagates(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1), CounterAtomic: true})
	tr.Append(trace.Op{Kind: trace.Clwb, Addr: 0})
	tr.Append(trace.Op{Kind: trace.Sfence})
	sys, _ := runOne(t, config.SCA, tr)
	if sys.St.Count(stats.CAWrites) == 0 {
		t.Fatal("CounterAtomic store did not become a CA write")
	}
}

func TestMultiCoreRunsAllTraces(t *testing.T) {
	// Four cores on disjoint 1MB arenas.
	trs := make([]*trace.Trace, 4)
	for i := range trs {
		trs[i] = simpleTrace(mem.Addr(i)<<20, 8)
	}
	sys, rt := runOne(t, config.SCA, trs...)
	if sys.Transactions() != 4 {
		t.Fatalf("transactions = %d, want 4", sys.Transactions())
	}
	if rt == 0 {
		t.Fatal("zero runtime")
	}
	// All 32 lines decrypt.
	for i := range trs {
		for j := 0; j < 8; j++ {
			a := mem.Addr(i)<<20 + mem.Addr(j*64)
			if got, ok := decrypt(sys, a); !ok || got != lineOf(byte(j+1)) {
				t.Fatalf("core %d line %d corrupt", i, j)
			}
		}
	}
}

func TestMultiCoreContentionSlowsDown(t *testing.T) {
	// The same per-core work on 1 vs 8 cores: per-core runtime must grow
	// under shared L2/bus/queue contention.
	one := []*trace.Trace{simpleTrace(0, 32)}
	_, rt1 := runOne(t, config.FCA, one...)

	eight := make([]*trace.Trace, 8)
	for i := range eight {
		eight[i] = simpleTrace(mem.Addr(i)<<20, 32)
	}
	_, rt8 := runOne(t, config.FCA, eight...)
	if rt8 <= rt1 {
		t.Fatalf("8-core runtime %v not slower than 1-core %v", rt8, rt1)
	}
}

func TestThroughputAccounting(t *testing.T) {
	sys, _ := runOne(t, config.SCA, simpleTrace(0, 2))
	if sys.Throughput() <= 0 {
		t.Fatal("nonpositive throughput")
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	sys, err := NewSpec(designSpec(t, config.SCA, 1), []*trace.Trace{simpleTrace(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	at := sys.RunUntil(50 * sim.Nanosecond)
	if at > 50*sim.Nanosecond {
		t.Fatalf("ran past deadline: %v", at)
	}
}

func TestDesignOrderingFCAvsSCAvsIdeal(t *testing.T) {
	// The headline relationship on a write-heavy trace:
	// Ideal <= SCA < FCA runtime.
	mk := func() *trace.Trace {
		tr := &trace.Trace{}
		for rep := 0; rep < 8; rep++ {
			for i := 0; i < 16; i++ {
				a := mem.Addr(i * 64)
				tr.Append(trace.Op{Kind: trace.Write, Addr: a, Line: lineOf(byte(rep + i))})
				tr.Append(trace.Op{Kind: trace.Clwb, Addr: a})
			}
			tr.Append(trace.Op{Kind: trace.CCWB, Addr: 0})
			tr.Append(trace.Op{Kind: trace.CCWB, Addr: 8 * 64})
			tr.Append(trace.Op{Kind: trace.Sfence})
		}
		return tr
	}
	var rts = map[config.Design]sim.Time{}
	for _, d := range []config.Design{config.Ideal, config.SCA, config.FCA} {
		_, rt := runOne(t, d, mk())
		rts[d] = rt
	}
	if !(rts[config.Ideal] <= rts[config.SCA]) {
		t.Errorf("Ideal (%v) slower than SCA (%v)", rts[config.Ideal], rts[config.SCA])
	}
	if !(rts[config.SCA] < rts[config.FCA]) {
		t.Errorf("SCA (%v) not faster than FCA (%v)", rts[config.SCA], rts[config.FCA])
	}
}

func TestWriteTrafficFCAAtLeastSCA(t *testing.T) {
	mk := func() *trace.Trace { return simpleTrace(0, 32) }
	sysS, _ := runOne(t, config.SCA, mk())
	sysF, _ := runOne(t, config.FCA, mk())
	// Queue coalescing lets FCA merge counter writes too, so bytes may
	// tie; FCA must never write fewer counters than SCA, and it always
	// pays the counter-atomic pairing on every write.
	if sysF.St.Count(stats.CounterBytesWritten) < sysS.St.Count(stats.CounterBytesWritten) {
		t.Fatalf("FCA counter bytes (%d) below SCA (%d)",
			sysF.St.Count(stats.CounterBytesWritten), sysS.St.Count(stats.CounterBytesWritten))
	}
	if sysF.St.Count(stats.CAWrites) <= sysS.St.Count(stats.CAWrites) {
		t.Fatalf("FCA CA writes (%d) not greater than SCA (%d)",
			sysF.St.Count(stats.CAWrites), sysS.St.Count(stats.CAWrites))
	}
}

func TestMeasuredRuntimeExcludesSetup(t *testing.T) {
	// A trace with a long compute-only setup before its first TxBegin:
	// the measured runtime must not include the setup.
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Compute, Cycles: 40000}) // 10us setup
	tr.Append(trace.Op{Kind: trace.TxBegin})
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1)})
	tr.Append(trace.Op{Kind: trace.Clwb, Addr: 0})
	tr.Append(trace.Op{Kind: trace.Sfence})
	tr.Append(trace.Op{Kind: trace.TxEnd})
	sys, total := runOne(t, config.SCA, tr)
	measured := sys.MeasuredRuntime()
	if measured >= total {
		t.Fatalf("measured %v not below total %v", measured, total)
	}
	if total-measured < 9*sim.Microsecond {
		t.Fatalf("setup (10us) not excluded: total %v measured %v", total, measured)
	}
}

func TestMeasuredRuntimeFallsBackWithoutTx(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Compute, Cycles: 4000})
	sys, total := runOne(t, config.SCA, tr)
	if sys.MeasuredRuntime() != total {
		t.Fatalf("no-tx fallback broken: %v vs %v", sys.MeasuredRuntime(), total)
	}
}

func TestBackpressureStallsCores(t *testing.T) {
	// A dense burst of thousands of writes to distinct lines must trip
	// the writeback backpressure at least once.
	tr := &trace.Trace{}
	for i := 0; i < 4000; i++ {
		a := mem.Addr(i * 64)
		tr.Append(trace.Op{Kind: trace.Write, Addr: a, Line: lineOf(byte(i))})
		tr.Append(trace.Op{Kind: trace.Clwb, Addr: a})
	}
	sys, _ := runOne(t, config.SCA, tr)
	if sys.St.Count("core.backpressure_stalls") == 0 {
		t.Fatal("no backpressure under a 4000-write burst")
	}
}

func TestOsirisReplayEndToEnd(t *testing.T) {
	// The Osiris design replays a full workload trace and the final
	// (flushed) image decrypts with NVM counters like any other design.
	sys, rt := runOne(t, config.Osiris, simpleTrace(0, 8))
	if rt == 0 {
		t.Fatal("zero runtime")
	}
	for i := 0; i < 8; i++ {
		a := mem.Addr(i * 64)
		got, ok := decrypt(sys, a)
		if !ok || got != lineOf(byte(i+1)) {
			t.Fatalf("line %d corrupt after Osiris run", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default(config.SCA)
	cfg.NumCores = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// New accepts exactly the configurations a spec can express, and the
// system it builds runs that configuration unchanged.
func TestNewAcceptsSpecExpressibleConfigs(t *testing.T) {
	fca := config.Default(config.FCA)
	fca.CounterWriteQueue = 4
	for _, cfg := range []*config.Config{config.Default(config.SCA).WithCores(2), fca} {
		trs := make([]*trace.Trace, cfg.NumCores)
		for i := range trs {
			trs[i] = simpleTrace(mem.Addr(i)<<20, 2)
		}
		sys, err := New(cfg, trs)
		if err != nil {
			t.Fatalf("%v/%d cores: %v", cfg.Design, cfg.NumCores, err)
		}
		if *sys.Cfg != *cfg {
			t.Fatalf("%v: system runs %+v, want %+v", cfg.Design, *sys.Cfg, *cfg)
		}
	}
}

// A configuration no spec expresses — a knob outside the spec's fields —
// is an error, not a silently different machine.
func TestNewRejectsInexpressibleConfigs(t *testing.T) {
	cases := map[string]func(*config.Config){
		"zero cores":       func(c *config.Config) { c.NumCores = 0 },
		"write recovery":   func(c *config.Config) { c.Timing.TWR *= 2 },
		"L1 associativity": func(c *config.Config) { c.L1.Ways = 4 },
	}
	for name, mutate := range cases {
		cfg := config.Default(config.SCA)
		mutate(cfg)
		if _, err := New(cfg, []*trace.Trace{simpleTrace(0, 2)}); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestNewRejectsInvalidTrace(t *testing.T) {
	bad := &trace.Trace{}
	bad.Append(trace.Op{Kind: trace.TxEnd}) // unbalanced
	if _, err := NewSpec(designSpec(t, config.SCA, 1), []*trace.Trace{bad}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestBatchingPreservesTiming(t *testing.T) {
	// A trace of pure cache hits must take exactly the sum of hit
	// latencies regardless of event batching.
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1)}) // L1 miss (cold)
	for i := 0; i < 100; i++ {
		tr.Append(trace.Op{Kind: trace.Read, Addr: 0}) // 100 L1 hits
	}
	sys, rt := runOne(t, config.NoEncryption, tr)
	cfg := sys.Cfg
	want := cfg.L1.HitTime + cfg.L2.HitTime + 100*cfg.L1.HitTime
	if rt != want {
		t.Fatalf("runtime = %v, want %v (cold write + 100 hits)", rt, want)
	}
}

func TestBatchBoundKeepsInterleaving(t *testing.T) {
	// A single huge compute must still advance as one op, and a long
	// run of hits must not complete in one instant (maxBatch bound).
	tr := &trace.Trace{}
	tr.Append(trace.Op{Kind: trace.Write, Addr: 0, Line: lineOf(1)})
	for i := 0; i < 2000; i++ { // 2000ns of hits > maxBatch
		tr.Append(trace.Op{Kind: trace.Read, Addr: 0})
	}
	sys, rt := runOne(t, config.NoEncryption, tr)
	if rt < 2000*sys.Cfg.L1.HitTime {
		t.Fatalf("runtime %v below the hit-cost floor", rt)
	}
}
