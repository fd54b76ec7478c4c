package enginecheck

import "encnvm/internal/machine/engines"

// Mutant is one seeded bad engine plus the rules expected to catch it.
type Mutant struct {
	Engine engines.Policy
	// Expect lists rule IDs; the checker must report at least one
	// finding, and at least one finding's rule must be in this set.
	Expect []string
	Why    string
}

// Mutants returns the seeded catalog of broken engines. Every mutant is
// a builtin policy with one field corrupted — the exact bugs a
// hand-written future engine is most likely to ship with.
func Mutants() []Mutant {
	mk := func(name string, p engines.Policy, mutate func(*engines.Policy), why string, expect ...string) Mutant {
		p.Name = name
		mutate(&p)
		return Mutant{Engine: p, Expect: expect, Why: why}
	}
	return []Mutant{
		mk("sca-dropca", engines.SCA, func(p *engines.Policy) { p.Atomicity = engines.AtomicNever },
			"SCA that ignores the CounterAtomic annotation: the log seal can garble with no recovery path",
			"C1"),
		mk("sca-nonblocking-ccwb", engines.SCA, func(p *engines.Policy) { p.CounterWritebackBlocks = false },
			"SCA whose ccwb emits but never blocks the barrier: coalesced counters are volatile at the commit switch",
			"C2", "V2"),
		mk("sca-silent-ccwb", engines.SCA, func(p *engines.Policy) { p.CounterWritebackEmits, p.CounterWritebackBlocks = false, false },
			"SCA whose ccwb is a silent no-op: counters never head to NVM at all",
			"C2", "V2"),
		mk("fca-unpaired", engines.FCA, func(p *engines.Policy) { p.Atomicity = engines.AtomicAnnotated },
			"FCA that pairs every write but only forces atomicity on annotated ones: unannotated writes emit unpaired counter halves",
			"C3"),
		mk("colocated-ccwb", engines.CoLocated, func(p *engines.Policy) { p.CounterWritebackEmits = true },
			"co-located engine that also emits counter writebacks: there is no separate counter region to write",
			"C0"),
		mk("noenc-countercache", engines.Plaintext, func(p *engines.Policy) { p.UsesCounterCache = true },
			"plaintext engine with a counter cache: nothing to cache",
			"C0"),
		mk("ideal-claims-consistent", engines.Ideal, func(p *engines.Policy) { p.CrashConsistent = true },
			"Ideal claiming crash consistency: its unordered ccwb garbles the log on the very first transaction",
			"V2"),
		mk("sca-claims-inconsistent", engines.SCA, func(p *engines.Policy) { p.CrashConsistent = false },
			"SCA disclaiming crash consistency: every abstract program verifies clean, so the disclaimer is unjustified",
			"C4"),
		mk("osiris-norecovery", engines.Osiris, func(p *engines.Policy) { p.Recovery = engines.CounterRecovery },
			"Osiris table whose firmware does plain counter-region recovery: a stale counter inside the window stays garbled",
			"C4"),
		mk("osiris-nostoploss", engines.Osiris, func(p *engines.Policy) { p.StopLoss = false },
			"Osiris without the stop-loss rule: counters are unbounded-stale and the dropped annotation has no backstop",
			"C1"),
		mk("ideal-blocking-claim", engines.Ideal, func(p *engines.Policy) { p.CounterWritebackEmits, p.CounterWritebackBlocks = false, true },
			"engine that blocks on a counter writeback it never emits",
			"C0"),
		mk("colocated-separate", engines.CoLocated, func(p *engines.Policy) { p.SeparateCounterWrites = true },
			"counters both co-located and separately written",
			"C0"),
		mk("stoploss-plaintext", engines.Plaintext, func(p *engines.Policy) { p.StopLoss = true },
			"stop-loss rule on an unencrypted engine: no counters to bound",
			"C0"),
		mk("bmt-drop-tree-path", engines.BMT, func(p *engines.Policy) { p.TreePath = engines.PathDropped },
			"BMT whose counter writebacks never carry the ancestor tree path: the switch publishes lines whose tree nodes are volatile",
			"V5"),
		mk("bmt-unordered-tree", engines.BMT, func(p *engines.Policy) { p.TreePath = engines.PathUnordered },
			"BMT whose tree-path writes are emitted but never fence-ordered: the MAC path is in flight at the commit switch",
			"V5"),
		mk("secpm-no-writethrough", engines.SecPM, func(p *engines.Policy) { p.MetadataWriteThrough = false },
			"SecPM that stops writing metadata through: with the annotation dropped and no ordering primitives, counters garble at the switch",
			"C1", "C2", "V2"),
		mk("noenc-integrity", engines.Plaintext, func(p *engines.Policy) { p.IntegrityProtected = true },
			"integrity tree on an unencrypted engine: no counter-mode metadata to protect",
			"C0"),
	}
}
