package replay

import (
	"reflect"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// btreeTrace is a small real workload trace: enough transactions to
// keep the queues and the counter cache busy across the split points.
func btreeTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := workloads.Params{Seed: 3, Items: 24, Ops: 12}
	rt := persist.NewRuntime(persist.ArenaFor(0, 64<<20))
	w := &workloads.BTree{}
	w.Setup(rt, p)
	w.Run(rt, p)
	return rt.Trace()
}

// specSystem builds a system for a registered machine with retire-time
// recording armed.
func specSystem(t *testing.T, name string, tr *trace.Trace) *System {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSpec(spec, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	sys.RecordRetireTimes()
	return sys
}

// replayState is everything a resumed replay must reproduce.
type replayState struct {
	Now    sim.Time
	Steps  uint64
	Log    []mem.Write
	Retire []sim.Time
	Dirty  []mem.Addr
}

func stateOf(sys *System) replayState {
	return replayState{
		Now:    sys.Eng.Now(),
		Steps:  sys.Eng.Steps(),
		Log:    append([]mem.Write(nil), sys.Dev.Image().Writes()...),
		Retire: append([]sim.Time(nil), sys.RetireTimes(0)...),
		Dirty:  sys.MC.DirtyCounterLines(),
	}
}

// RunUntil is resumable: stopping on the way and continuing must leave
// the machine exactly where one uninterrupted call leaves it, and a Run
// after RunUntil must finish the same run a lone Run does. Each core is
// scheduled once, however many calls drive the replay.
func TestRunUntilResumes(t *testing.T) {
	tr := btreeTrace(t)
	for _, name := range machine.Names() {
		full := specSystem(t, name, tr)
		end := full.Run()
		a, b := end/3, 2*end/3

		once := specSystem(t, name, tr)
		once.RunUntil(b)
		want := stateOf(once)
		twice := specSystem(t, name, tr)
		twice.RunUntil(a)
		twice.RunUntil(a) // repeating a deadline is a no-op
		twice.RunUntil(b)
		if got := stateOf(twice); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunUntil(%v); RunUntil(%v) reached %v after %d events, RunUntil(%v) alone %v after %d",
				name, a, b, got.Now, got.Steps, b, want.Now, want.Steps)
		}
		if len(want.Log) == 0 {
			t.Errorf("%s: nothing happened by %v; the comparison is vacuous", name, b)
		}

		resumed := specSystem(t, name, tr)
		resumed.RunUntil(a)
		if got := resumed.Run(); got != end {
			t.Errorf("%s: RunUntil(%v); Run() = %v, Run() alone = %v", name, a, got, end)
		}
		if got, want := stateOf(resumed), stateOf(full); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunUntil(%v); Run() took %d events, Run() alone %d", name, a, got.Steps, want.Steps)
		}
	}
}

// A deadline before the time already reached would move the clock
// backwards; it is refused.
func TestRunUntilRejectsEarlierDeadline(t *testing.T) {
	sys := specSystem(t, "sca", btreeTrace(t))
	sys.RunUntil(100 * sim.Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil with an earlier deadline did not panic")
		}
	}()
	sys.RunUntil(50 * sim.Nanosecond)
}
