package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/mem"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// acceptLog is everything a write stream makes observable at the
// controller's acceptance boundary: which callback fired at which
// instant (the acceptance order and times of writes, ccwbs, flushes and
// reads), every persist-epoch instant, and the final statistics.
type acceptLog struct {
	events   []string
	epochs   []sim.Time
	counters map[string]uint64
	lat      map[string][4]uint64
	pending  int
}

// streamCfg is a machine config the differential streams run on: a
// 4 KB counter cache so counter writes evict, and optionally small write
// queues so acceptance stalls constantly.
func streamCfg(d config.Design, tight bool) *config.Config {
	cfg := config.Default(d)
	cfg.CounterCache.SizeBytes = 4 << 10
	if tight {
		cfg.DataWriteQueue = 8
		cfg.CounterWriteQueue = 4
	}
	return cfg
}

// observe builds a controller on cfg — through the reference acceptance
// loop when ref is set — with a persist-epoch sink and a callback
// factory feeding log.
func observe(cfg *config.Config, ref bool, log *acceptLog) (*rig, func(kind string, id int) func()) {
	r := newRigCfg(cfg)
	if ref {
		r.mc.refAccept = r.mc.referenceTryAccept
	}
	r.mc.SetPersistEpochSink(func(t sim.Time) { log.epochs = append(log.epochs, t) })
	return r, func(kind string, id int) func() {
		return func() { log.events = append(log.events, fmt.Sprintf("%d %s%d", r.eng.Now(), kind, id)) }
	}
}

// finish drains the run and records the final statistics.
func (log *acceptLog) finish(r *rig) {
	r.eng.Run()
	log.counters = r.st.Counters()
	log.lat = make(map[string][4]uint64)
	for k, l := range r.st.Latencies() {
		log.lat[k] = [4]uint64{l.Count(), uint64(l.Sum()), uint64(l.Min()), uint64(l.Max())}
	}
	log.pending = r.mc.PendingWork()
}

// diff reports the first difference between two logs, or "".
func (log *acceptLog) diff(ref *acceptLog) string {
	if log.pending != 0 || ref.pending != 0 {
		return fmt.Sprintf("work left queued (new %d, reference %d)", log.pending, ref.pending)
	}
	for i := 0; i < len(log.events) || i < len(ref.events); i++ {
		var g, w string
		if i < len(log.events) {
			g = log.events[i]
		}
		if i < len(ref.events) {
			w = ref.events[i]
		}
		if g != w {
			return fmt.Sprintf("callback %d: got %q, reference %q", i, g, w)
		}
	}
	if !reflect.DeepEqual(log.epochs, ref.epochs) {
		return fmt.Sprintf("persist epochs differ (%d vs %d instants)", len(log.epochs), len(ref.epochs))
	}
	if !reflect.DeepEqual(log.counters, ref.counters) {
		return fmt.Sprintf("counters differ:\n got %v\nwant %v", log.counters, ref.counters)
	}
	if !reflect.DeepEqual(log.lat, ref.lat) {
		return fmt.Sprintf("latency distributions differ:\n got %v\nwant %v", log.lat, ref.lat)
	}
	return ""
}

// runStream replays a seeded random write stream on a fresh controller.
func runStream(cfg *config.Config, seed int64, ref bool) *acceptLog {
	log := new(acceptLog)
	r, note := observe(cfg, ref, log)
	rng := rand.New(rand.NewSource(seed))
	// A few hot lines keep same-line program order in play; the wide
	// range spreads writes over many counter lines to force counter-cache
	// evictions.
	addr := func() mem.Addr {
		if rng.Intn(4) == 0 {
			return mem.Addr(rng.Intn(8)) * 64
		}
		return mem.Addr(rng.Intn(4096)) * 64
	}
	at := sim.Time(0)
	for id := 0; id < 1000; id++ {
		switch rng.Intn(4) {
		case 0: // back to back
		case 1:
			at += sim.Time(rng.Intn(50)) * sim.Nanosecond
		default:
			at += sim.Time(rng.Intn(600)) * sim.Nanosecond
		}
		id := id
		a := addr()
		var op func()
		switch k := rng.Intn(100); {
		case k < 50:
			op = func() { r.mc.Write(a, lineOf(byte(id)), false, note("w", id)) }
		case k < 75:
			op = func() { r.mc.Write(a, lineOf(byte(id)), true, note("ca", id)) }
		case k < 85:
			op = func() { r.mc.CounterWriteback(a, note("ccwb", id)) }
		case k < 95:
			op = func() { r.mc.Read(a, note("r", id)) }
		case k < 98:
			// A storm past the acceptance window at one instant.
			n := acceptWindow + 1 + rng.Intn(2*acceptWindow)
			addrs := make([]mem.Addr, n)
			for i := range addrs {
				addrs[i] = addr()
			}
			op = func() {
				for i, b := range addrs {
					r.mc.Write(b, lineOf(byte(i)), i%3 == 0, note(fmt.Sprintf("s%d.", id), i))
				}
			}
		default:
			op = func() { r.mc.FlushCounters(note("flush", id)) }
		}
		r.eng.At(at, op)
	}
	log.finish(r)
	return log
}

// The in-place, stamped-set acceptance loop must be observably
// identical to the reference loop it replaced: same acceptance order and
// instants, same persist epochs, same stall and ready-bit tallies —
// under every design, with roomy and with tight queues.
func TestAcceptMatchesReference(t *testing.T) {
	for _, d := range config.AllDesigns {
		for _, tight := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/tight=%v/seed=%d", d, tight, seed)
				cfg := streamCfg(d, tight)
				got, want := runStream(cfg, seed, false), runStream(cfg, seed, true)
				if msg := got.diff(want); msg != "" {
					t.Fatalf("%s: %s", name, msg)
				}
				if d != config.NoEncryption && want.counters[stats.WriteQueueStalls] == 0 {
					t.Errorf("%s: stream never stalled acceptance; it tests nothing", name)
				}
			}
		}
	}
}

// stalledWindow fills the data queue and queues more than a window of
// plain writes behind it, so every acceptance pass walks the full
// lookahead and accepts nothing.
func stalledWindow(t testing.TB, d config.Design) *rig {
	r := newRigCfg(streamCfg(d, true))
	for i := 0; i < 2*acceptWindow; i++ {
		r.mc.Write(mem.Addr(i)*64, lineOf(byte(i)), false, nil)
	}
	if r.mc.Backlog() <= acceptWindow {
		t.Fatalf("%s: backlog %d, want more than the acceptance window", d, r.mc.Backlog())
	}
	return r
}

// A full acceptance pass, here over a window of blocked writes,
// allocates nothing.
func TestTryAcceptAllocatesNothing(t *testing.T) {
	for _, d := range []config.Design{config.FCA, config.SCA} {
		r := stalledWindow(t, d)
		if n := testing.AllocsPerRun(100, r.mc.tryAccept); n != 0 {
			t.Errorf("%s: tryAccept allocates %.1f times per full pass", d, n)
		}
	}
}

// BenchmarkMemctrlAccept drives the controller's accept/issue/retire
// cycle with a synthetic write stream: per op, 64 writes (one in four
// counter-atomic) to lines spread over 256 counter lines, arriving 20 ns
// apart, drained to completion. The remaining allocations come from the
// device and pipeline completion closures (hotalloc-allowlisted) and the
// encryption pad, which escapes through the cipher.Block interface —
// not from acceptance.
func BenchmarkMemctrlAccept(b *testing.B) {
	for _, d := range []config.Design{config.FCA, config.SCA} {
		b.Run(d.String(), func(b *testing.B) {
			r := newRig(d)
			r.dev.Image().SetRetainLog(false) // keep B/op independent of b.N
			rng := rand.New(rand.NewSource(1))
			writes := make([]func(), 64)
			for i := range writes {
				a, ca := mem.Addr(rng.Intn(2048))*64, rng.Intn(4) == 0
				writes[i] = func() { r.mc.Write(a, mem.Line{}, ca, nil) }
			}
			round := func() {
				t0 := r.eng.Now()
				for j, w := range writes {
					r.eng.At(t0+sim.Time(j)*20*sim.Nanosecond, w)
				}
				r.eng.Run()
			}
			// One warm-up round grows the event queue and the counter
			// map to their high-water marks, so B/op does not depend
			// on b.N.
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
