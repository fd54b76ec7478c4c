package exp

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/replay"
	"encnvm/internal/workloads"
)

// tinyParams keeps the session unit tests' cells to a few milliseconds.
var tinyParams = workloads.Params{Seed: 42, Items: 64, Ops: 16, OpsPerTx: 1, ComputeCycles: 200}

func TestSessionResolvedSpecsShareACell(t *testing.T) {
	s := NewSession(Quick)
	request := func(spec machine.Spec) cellResult {
		t.Helper()
		r, err := s.result(cell{spec, "queue", tinyParams}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := request(machine.Spec{Engine: "colocated", ReadLatencyX: 1})
	b := request(machine.Spec{Engine: "colocated"})
	if n := s.cellCount(); n != 1 {
		t.Fatalf("specs resolving equal made %d entries, want 1", n)
	}
	if a != b {
		t.Errorf("one cell, two results: %+v vs %+v", a, b)
	}
	request(machine.Spec{Engine: "sca", CounterCacheBytes: 8 << 10})
	request(machine.Spec{Engine: "sca", CounterCacheBytes: 16 << 10})
	if n := s.cellCount(); n != 3 {
		t.Errorf("two counter-cache sizes: %d entries, want 3", n)
	}
}

func TestSessionSingleFlight(t *testing.T) {
	s := NewSession(Quick)
	c := cell{machine.Spec{Engine: "sca"}, "btree", tinyParams}
	const n = 8
	results := make([]cellResult, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.result(c, 1)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}()
	}
	wg.Wait()
	if got := s.cellCount(); got != 1 {
		t.Fatalf("%d goroutines on one cell made %d entries, want 1", n, got)
	}
	for i, r := range results {
		if r != results[0] || r.stats == nil {
			t.Errorf("request %d got %+v, want %+v", i, r, results[0])
		}
	}
}

// A memo entry lives as long as the session, so its result must not
// keep the machine (device image, caches, queues) reachable. Beside the
// result an entry holds only its sync.Once and error.
func TestCellResultRetainsNoSystem(t *testing.T) {
	system := reflect.TypeOf(replay.System{})
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		if ty == system {
			t.Fatalf("memo entry reaches replay.System via %s", path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"/"+ty.Kind().String())
		case reflect.Map:
			walk(ty.Key(), path+"/key")
			walk(ty.Elem(), path+"/elem")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Interface, reflect.Func:
			t.Fatalf("memo entry holds %v at %s, which could reach anything", ty, path)
		}
	}
	walk(reflect.TypeOf(cellEntry{}.res), "res")
}

// sessionFigures are the figures that read the session, in
// cmd/experiments order.
var sessionFigures = []struct {
	name string
	run  func(*Session, io.Writer) (any, error)
}{
	{"fig12", func(s *Session, w io.Writer) (any, error) { return s.Fig12(w) }},
	{"fig13", func(s *Session, w io.Writer) (any, error) { return s.Fig13(w) }},
	{"fig14", func(s *Session, w io.Writer) (any, error) { return s.Fig14(w) }},
	{"fig15", func(s *Session, w io.Writer) (any, error) { return s.Fig15(w) }},
	{"fig17", func(s *Session, w io.Writer) (any, error) { return s.Fig17(w) }},
	{"lifetime", func(s *Session, w io.Writer) (any, error) { return s.Lifetime(w) }},
	{"osiris", func(s *Session, w io.Writer) (any, error) { return s.Osiris(w) }},
	{"integrity", func(s *Session, w io.Writer) (any, error) { return s.Integrity(w) }},
}

// cellCount returns the number of memo entries. Each entry is created
// by the request that missed and simulated once by it, so it is also the
// number of simulations the session has run.
func (s *Session) cellCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// figureRun is one figure's result and stdout, and the simulations it
// ran.
type figureRun struct {
	res  any
	out  string
	sims int
}

func runFigure(s *Session, i int) (figureRun, error) {
	var sb strings.Builder
	before := s.cellCount()
	res, err := sessionFigures[i].run(s, &sb)
	return figureRun{res, sb.String(), s.cellCount() - before}, err
}

// quickRuns runs every session figure at Quick three ways, once per test
// binary: [0] in order in one shared session, [1] again in that session
// after all of them (every cell a memo hit), and [2] alone in a fresh
// session.
var quickRuns = sync.OnceValues(func() (map[string][]figureRun, error) {
	runs := make(map[string][]figureRun)
	shared := NewSession(Quick)
	for _, s := range []*Session{shared, shared, nil} {
		for i, f := range sessionFigures {
			fs := s
			if fs == nil {
				fs = NewSession(Quick)
			}
			r, err := runFigure(fs, i)
			if err != nil {
				return nil, err
			}
			if n := len(fs.traceSets); n != 0 {
				return nil, fmt.Errorf("%s returned holding %d trace sets", f.name, n)
			}
			runs[f.name] = append(runs[f.name], r)
		}
	}
	return runs, nil
})

// The exact simulation counts of a shared Quick session. Before
// sessions, every figure re-simulated its whole grid: the five
// single-core views ran 25+25+15+15+15 = 95 simulations (the fresh
// counts below), Fig. 13 65 (its 1-core NoEncryption baseline twice)
// and Fig. 17 60 (its two factor-1 columns apart).
func TestSessionMissCounts(t *testing.T) {
	runs, err := quickRuns()
	if err != nil {
		t.Fatal(err)
	}
	var shared, fresh int
	for _, f := range []string{"fig12", "fig14", "lifetime", "osiris", "integrity"} {
		shared += runs[f][0].sims
		fresh += runs[f][2].sims
	}
	if shared != 45 || fresh != 95 {
		t.Errorf("single-core views: %d simulations shared, %d fresh; want 45 and 95", shared, fresh)
	}
	for f, want := range map[string]int{"fig12": 25, "fig13": 60, "fig14": 0, "fig15": 6, "fig17": 50,
		"lifetime": 0, "osiris": 10, "integrity": 10} {
		if got := runs[f][0].sims; got != want {
			t.Errorf("%s: %d simulations in the shared session, want %d", f, got, want)
		}
		if got := runs[f][1].sims; got != 0 {
			t.Errorf("%s: %d simulations on its second run, want 0", f, got)
		}
	}
}

// A figure's result and output must not depend on what the session ran
// before it.
func TestSessionSharedMatchesFresh(t *testing.T) {
	runs, err := quickRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sessionFigures {
		fresh := runs[f.name][2]
		for pass, r := range runs[f.name][:2] {
			if !reflect.DeepEqual(r.res, fresh.res) {
				t.Errorf("%s shared pass %d: result %+v, fresh %+v", f.name, pass, r.res, fresh.res)
			}
			if r.out != fresh.out {
				t.Errorf("%s shared pass %d: output differs from a fresh session:\n%s\n--- fresh ---\n%s",
					f.name, pass, r.out, fresh.out)
			}
		}
	}
}
