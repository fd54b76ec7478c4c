package engines

import (
	"testing"

	"encnvm/internal/config"
)

// The policy table pins each design's counter placement. config keeps
// CoLocatesCounters alone (the default bus width depends on it and
// config cannot import this package), so it must agree with the policy.
func TestPolicyTableMatchesDesignPredicates(t *testing.T) {
	cases := []struct {
		d                              config.Design
		enc, ccache, coloc, sepCounter bool
	}{
		{config.NoEncryption, false, false, false, false},
		{config.Ideal, true, true, false, true},
		{config.CoLocated, true, false, true, false},
		{config.CoLocatedCC, true, true, true, false},
		{config.FCA, true, true, false, true},
		{config.SCA, true, true, false, true},
		{config.Osiris, true, true, false, true},
		{config.BMT, true, true, false, true},
		{config.SecPM, true, true, false, true},
	}
	if len(cases) != len(Names()) {
		t.Fatalf("%d cases for %d builtins", len(cases), len(Names()))
	}
	for _, c := range cases {
		p, err := ForDesign(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if p.Design != c.d {
			t.Errorf("%s: Design = %v, want %v", p.Name, p.Design, c.d)
		}
		if p.Encrypted != c.enc || p.UsesCounterCache != c.ccache ||
			p.CoLocatesCounters != c.coloc || p.SeparateCounterWrites != c.sepCounter {
			t.Errorf("%s: enc=%v cc=%v coloc=%v sep=%v", p.Name,
				p.Encrypted, p.UsesCounterCache, p.CoLocatesCounters, p.SeparateCounterWrites)
		}
		if p.CoLocatesCounters != c.d.CoLocatesCounters() {
			t.Errorf("%s: CoLocatesCounters = %v, config.Design says %v",
				p.Name, p.CoLocatesCounters, c.d.CoLocatesCounters())
		}
		byName, err := ByName(p.Name)
		if err != nil || byName != p {
			t.Errorf("ByName(%q) does not round-trip (%v)", p.Name, err)
		}
	}
	if _, err := ForDesign(config.Design(99)); err == nil {
		t.Error("ForDesign accepted an out-of-range design")
	}
	if _, err := ByName("madeup"); err == nil {
		t.Error("ByName accepted an unknown engine")
	}
}

// Write atomicity is the subtlest branch the controller used to carry:
// FCA forces every write counter-atomic, co-located and Osiris designs
// drop the annotation, Ideal and SCA honor it.
func TestWriteIsCounterAtomic(t *testing.T) {
	cases := []struct {
		engine           string
		plain, annotated bool
	}{
		{"noenc", false, false},
		{"ideal", false, true},
		{"colocated", false, false},
		{"colocatedcc", false, false},
		{"fca", true, true},
		{"sca", false, true},
		{"osiris", false, false},
	}
	for _, c := range cases {
		e, err := ByName(c.engine)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.WriteIsCounterAtomic(false); got != c.plain {
			t.Errorf("%s: WriteIsCounterAtomic(false) = %v", c.engine, got)
		}
		if got := e.WriteIsCounterAtomic(true); got != c.annotated {
			t.Errorf("%s: WriteIsCounterAtomic(true) = %v", c.engine, got)
		}
	}
}

// Every design but Ideal claims crash consistency; Ideal deliberately
// disclaims it (ccwb never blocks the barrier). enginecheck verifies the
// claim against the rest of the table, so this pin keeps the claims from
// drifting silently.
func TestCrashConsistencyClaims(t *testing.T) {
	for _, name := range Names() {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := name != "ideal"
		if got := e.CrashConsistent; got != want {
			t.Errorf("%s: CrashConsistent = %v, want %v", name, got, want)
		}
	}
}

// Only Osiris runs the stop-loss rule; everyone else reports the -1
// sentinel that disables the lag tracker entirely.
func TestStopLossLimit(t *testing.T) {
	cfg := config.Default(config.Osiris)
	cfg.StopLoss = 7
	for _, name := range Names() {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := -1
		if name == "osiris" {
			want = 7
		}
		if got := e.StopLossLimit(cfg); got != want {
			t.Errorf("%s: StopLossLimit = %d, want %d", name, got, want)
		}
	}
}

// Tree-path writes are derived, not stated: only an integrity engine
// whose metadata does not write through, and whose path is not dropped,
// carries TreeDepth+1 extra lines per counter write.
func TestTreePathWrites(t *testing.T) {
	cfg := config.Default(config.BMT)
	want := TreeDepth(cfg) + 1
	for _, name := range Names() {
		e, _ := ByName(name)
		exp := 0
		if name == "bmt" {
			exp = want
		}
		if got := e.TreePathWrites(cfg); got != exp {
			t.Errorf("%s: TreePathWrites = %d, want %d", name, got, exp)
		}
	}
	for _, c := range []struct {
		path TreePath
		want int
	}{{PathWithCounter, want}, {PathDropped, 0}, {PathUnordered, want}} {
		p := BMT
		p.TreePath = c.path
		if got := p.TreePathWrites(cfg); got != c.want {
			t.Errorf("TreePath %d: TreePathWrites = %d, want %d", c.path, got, c.want)
		}
	}
}
