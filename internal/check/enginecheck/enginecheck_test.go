package enginecheck

import (
	"path/filepath"
	"reflect"
	"testing"

	"encnvm/internal/check/verify"
	"encnvm/internal/machine/engines"
)

// All nine builtin engines must pass the full contract check — that is
// the acceptance gate for persistcheck -enginecheck.
func TestBuiltinEnginesClean(t *testing.T) {
	for _, name := range engines.Names() {
		e, err := engines.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := Check(e, nil)
		if !rep.Clean() {
			for _, f := range rep.Findings {
				t.Errorf("%s", f)
			}
			t.Fatalf("builtin engine %s fails enginecheck", name)
		}
		if rep.Programs != len(Programs()) {
			t.Errorf("%s: executed %d programs, want %d", name, rep.Programs, len(Programs()))
		}
	}
}

// Every seeded mutant must be caught, and by (at least) one of the rules
// its catalog entry names.
func TestMutantsCaught(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Mutants() {
		name := m.Engine.Name
		if seen[name] {
			t.Fatalf("duplicate mutant name %s", name)
		}
		seen[name] = true
		rep := Check(m.Engine, nil)
		if rep.Clean() {
			t.Errorf("mutant %s escaped: %s", name, m.Why)
			continue
		}
		matched := false
		for _, f := range rep.Findings {
			for _, want := range m.Expect {
				if f.Rule == want {
					matched = true
				}
			}
		}
		if !matched {
			var got []string
			for _, f := range rep.Findings {
				got = append(got, f.Rule)
			}
			t.Errorf("mutant %s caught by %v, want one of %v", name, got, m.Expect)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("mutant catalog has %d entries, want >= 10", len(seen))
	}
}

// The SCA model must be indistinguishable from the verifier's default:
// the machine the trace IR was specified against.
func TestSCAModelIsDefault(t *testing.T) {
	model := ModelFor(engines.SCA, nil)
	if model == nil {
		t.Fatal("nil model")
	}
	for _, p := range Programs() {
		legacy := verify.Verify(p.Trace, verify.Options{Arenas: p.Arenas})
		modeled := verify.Verify(p.Trace, verify.Options{Arenas: p.Arenas, Model: model})
		if len(legacy.Violations) != len(modeled.Violations) {
			t.Fatalf("%s: SCA model diverges from default: %v vs %v",
				p.Name, legacy.Violations, modeled.Violations)
		}
	}
}

// Ideal must be confirmed inconsistent by an actual violating schedule,
// not just rubber-stamped by its disclaimer.
func TestIdealDisclaimConfirmed(t *testing.T) {
	model := ModelFor(engines.Ideal, nil)
	total := 0
	for _, p := range Programs() {
		res := verify.Verify(p.Trace, verify.Options{Arenas: p.Arenas, Model: model})
		total += len(res.Violations)
	}
	if total == 0 {
		t.Fatal("Ideal's unordered ccwb should violate V2 on the transaction programs")
	}
}

// A V-rule counterexample must round-trip through the file format and
// reproduce on replay.
func TestCounterexampleReplay(t *testing.T) {
	var m Mutant
	for _, c := range Mutants() {
		if c.Engine.Name == "ideal-claims-consistent" {
			m = c
		}
	}
	if m.Engine.Name == "" {
		t.Fatal("catalog is missing ideal-claims-consistent")
	}
	rep := Check(m.Engine, nil)
	var f *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Violation != nil {
			f = &rep.Findings[i]
			break
		}
	}
	if f == nil {
		t.Fatalf("no V-rule finding with a schedule for %s: %v", m.Engine.Name, rep.Findings)
	}
	file := NewFile(m.Engine.Name, *f, ModelFor(m.Engine, nil))
	if len(file.Ops) == 0 || len(file.Arenas) == 0 {
		t.Fatal("counterexample file is missing the abstract trace")
	}
	path := filepath.Join(t.TempDir(), "cex.json")
	if err := file.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Ops, file.Ops) || loaded.Rule != file.Rule {
		t.Fatal("counterexample file did not round-trip")
	}
	if err := loaded.Replay(); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}

// Corrupting the replayed schedule must be detected, or Replay is
// vacuous.
func TestCounterexampleReplayDetectsDrift(t *testing.T) {
	rep := Check(mustMutant(t, "ideal-claims-consistent"), nil)
	var f *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Violation != nil {
			f = &rep.Findings[i]
			break
		}
	}
	if f == nil {
		t.Fatal("no schedule-bearing finding")
	}
	file := NewFile("ideal-claims-consistent", *f, ModelFor(engines.Ideal, nil))
	// An ordered ccwb heals the violation: replay must notice.
	file.Model.CCWBUnordered = false
	if err := file.Replay(); err == nil {
		t.Fatal("replay accepted a healed model")
	}
}

func mustMutant(t *testing.T, name string) engines.Policy {
	t.Helper()
	for _, m := range Mutants() {
		if m.Engine.Name == name {
			return m.Engine
		}
	}
	t.Fatalf("no mutant %s", name)
	return engines.Policy{}
}

func TestRulesCatalog(t *testing.T) {
	rules := Rules()
	if len(rules) != 5 {
		t.Fatalf("want 5 rules, got %d", len(rules))
	}
	for i, want := range []string{"C0", "C1", "C2", "C3", "C4"} {
		if rules[i].ID != want || rules[i].Doc == "" {
			t.Errorf("rule %d = %q, want %s with doc", i, rules[i].ID, want)
		}
	}
}

// Determinism: two checks of the same engine must produce identical
// findings — the checker feeds CI gates and golden files.
func TestCheckDeterministic(t *testing.T) {
	for _, m := range Mutants() {
		a := Check(m.Engine, nil)
		b := Check(m.Engine, nil)
		if len(a.Findings) != len(b.Findings) {
			t.Fatalf("%s: nondeterministic finding count", m.Engine.Name)
		}
		for i := range a.Findings {
			if a.Findings[i].String() != b.Findings[i].String() {
				t.Fatalf("%s: finding %d drifted:\n%s\n%s",
					m.Engine.Name, i, a.Findings[i], b.Findings[i])
			}
		}
	}
}
