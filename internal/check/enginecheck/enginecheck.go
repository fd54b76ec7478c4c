// Package enginecheck is the spec-level model checker for engines.Policy
// values. Where internal/check lints one recorded execution and
// internal/check/verify proves one trace over all crash points, this
// package checks the ENGINE itself, before any simulation: the policy
// table must be internally coherent (rules C0–C3), its claimed crash
// consistency must hold when the paper's persistency protocols are
// symbolically executed under the engine's persistence semantics
// (invariants V1–V5, via verify.Model), and its Recover implementation
// must actually reconstruct plaintext from the images its table permits
// (rule C4).
//
// The check is bidirectional. An engine claiming CrashConsistent must
// verify clean on every abstract program; an engine disclaiming it (the
// Ideal design) must exhibit at least one violating crash schedule —
// otherwise the disclaimer is unjustified and C4 fires. Every V-rule
// finding carries a concrete counterexample: the abstract trace plus the
// verifier's crash schedule, serializable with WriteFile and re-checkable
// with ReplayFile.
//
// A new engine author runs:
//
//	persistcheck -enginecheck [-cex-dir DIR] [spec.json ...]
//
// which checks every registry engine plus the named specs and writes one
// counterexample file per finding.
package enginecheck

import (
	"fmt"

	"encnvm/internal/check/verify"
	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine/engines"
	"encnvm/internal/mem"
)

// Rule documents one contract rule for tool catalogs.
type Rule struct {
	ID  string
	Doc string
}

// Rules returns the catalog of engine contract rules, in ID order.
func Rules() []Rule {
	return []Rule{
		{"C0", "policy table is structurally coherent (co-location excludes separate counter writes, caching/writebacks/integrity require encryption, blocking requires emitting, write-through and tree paths require an integrity tree)"},
		{"C1", "counter-atomic annotations are honored: an encrypted engine with separate, non-recoverable, non-write-through counters must implement WriteIsCounterAtomic(true)"},
		{"C2", "a counter-cached engine claiming consistency must make counters durable before a commit switch: blocking writeback, stop-loss bound, write-through metadata, or forced atomicity"},
		{"C3", "per-write pairing implies forced counter-atomicity and a separate counter region"},
		{"C4", "Recover and the consistency claim are sound: persisted images round-trip, stop-loss engines recover stale counters within the window, and a disclaimed engine exhibits a real violation"},
	}
}

// Finding is one contract breach for one engine.
type Finding struct {
	Engine  string
	Rule    string // "C0".."C4" or "V0".."V5"
	Program string // abstract program that exposed it ("" for table rules)
	Message string
	// Violation carries the verifier's counterexample for V-rule
	// findings (nil for table and recovery rules).
	Violation *verify.Violation
}

// String renders the finding in the linter's one-line form.
func (f Finding) String() string {
	if f.Program != "" {
		return fmt.Sprintf("%s: %s [%s]: %s", f.Engine, f.Rule, f.Program, f.Message)
	}
	return fmt.Sprintf("%s: %s: %s", f.Engine, f.Rule, f.Message)
}

// Report summarizes one engine's check.
type Report struct {
	Engine   string
	Programs int // abstract programs symbolically executed
	Findings []Finding
}

// Clean reports whether the engine passed every rule.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

// ModelFor derives the verifier's persistence model from an engine's
// policy: how the annotation maps to effective atomicity, whether
// separate counter durability is ever at risk, whether ccwb is ordered
// by the next fence, and how integrity-tree paths persist.
func ModelFor(e engines.Policy, cfg *config.Config) *verify.Model {
	wthru := e.MetadataWriteThrough
	return &verify.Model{
		AtomicWrite: e.WriteIsCounterAtomic,
		CounterFree: !e.Encrypted || e.CoLocatesCounters ||
			e.StopLossLimit(cfg) >= 0 || wthru,
		CCWBUnordered: !(e.CounterWritebackEmits && e.CounterWritebackBlocks),
		// A write-through engine's tree is as durable as its counters —
		// by construction — so V5 only ever constrains engines whose
		// tree paths ride the counter writeback.
		TreeProtected:       e.IntegrityProtected && !wthru,
		TreePathWithCounter: e.TreePathWrites(cfg) > 0,
		TreePathUnordered:   e.TreePath == engines.PathUnordered,
	}
}

// Check model-checks one engine against C0–C4 and, through the abstract
// programs, V0–V5. cfg supplies the sizing knobs the policy consults
// (StopLoss); nil uses the engine design's Table-2 default.
func Check(e engines.Policy, cfg *config.Config) Report {
	if cfg == nil {
		cfg = config.Default(e.Design)
	}
	rep := Report{Engine: e.Name}
	fail := func(rule, program, format string, args ...interface{}) {
		rep.Findings = append(rep.Findings, Finding{
			Engine: e.Name, Rule: rule, Program: program,
			Message: fmt.Sprintf(format, args...),
		})
	}

	checkTable(e, cfg, fail)
	violations := checkPrograms(e, cfg, &rep)
	checkRecovery(e, cfg, fail)

	// C4 claim soundness, disclaiming direction: an engine that
	// disclaims crash consistency must actually exhibit a violation, or
	// the disclaimer is hiding a checkable (and claimable) guarantee.
	if !e.CrashConsistent && violations == 0 {
		fail("C4", "", "engine disclaims crash consistency but every abstract program verifies clean under its persistence model")
	}
	return rep
}

// checkTable runs the purely structural rules C0–C3 over the policy
// fields alone.
func checkTable(e engines.Policy, cfg *config.Config, fail func(rule, program, format string, args ...interface{})) {
	enc := e.Encrypted
	cache := e.UsesCounterCache
	coloc := e.CoLocatesCounters
	sep := e.SeparateCounterWrites
	emit := e.CounterWritebackEmits
	wait := e.CounterWritebackBlocks
	stopLoss := e.StopLossLimit(cfg)
	integ := e.IntegrityProtected
	wthru := e.MetadataWriteThrough

	// C0: structural coherence.
	if coloc && sep {
		fail("C0", "", "counters cannot both co-locate with data and use separate counter writes")
	}
	if cache && !enc {
		fail("C0", "", "a counter cache without counter-mode encryption has nothing to cache")
	}
	if emit && !sep {
		fail("C0", "", "counter_cache_writeback emits counter writes but there is no separate counter region to write")
	}
	if wait && !emit {
		fail("C0", "", "counter_cache_writeback blocks on a counter write it never emits")
	}
	if !enc && (coloc || sep || stopLoss >= 0) {
		fail("C0", "", "an unencrypted engine has no counters to place (coloc=%v sep=%v stopLoss=%d)", coloc, sep, stopLoss)
	}
	if integ && !enc {
		fail("C0", "", "an integrity tree over counter-mode metadata requires encryption")
	}
	if wthru && !integ {
		fail("C0", "", "write-through metadata without integrity protection has no MAC to carry")
	}
	if wthru && !sep {
		fail("C0", "", "write-through metadata needs a separate counter region for the combined counter+MAC line")
	}

	// C1: annotation honoring. With encryption, separate counters, no
	// co-location, no stop-loss recovery, and no write-through metadata,
	// the CounterAtomic annotation is the ONLY crash-consistency
	// mechanism — dropping it (AtomicNever) makes the seal garble-able with
	// no recovery path.
	if enc && !coloc && stopLoss < 0 && !wthru && !e.WriteIsCounterAtomic(true) {
		fail("C1", "", "StopLossLimit=-1 with separate counters requires WriteIsCounterAtomic(annotated=true); the annotation is the only consistency mechanism left")
	}

	// C2: counter durability before the commit switch. A counter-cached
	// engine claiming consistency must get coalesced counters to NVM
	// before the switch publishes them: a blocking writeback path, a
	// stop-loss bound, or forcing every write counter-atomic.
	if e.CrashConsistent && enc && sep && cache {
		if !(emit && wait) && stopLoss < 0 && !wthru && !e.WriteIsCounterAtomic(false) {
			fail("C2", "", "counter-cached engine claims consistency but has no blocking counter-writeback path before a commit switch (emits=%v blocks=%v stopLoss=%d forceCA=%v)",
				emit, wait, stopLoss, e.WriteIsCounterAtomic(false))
		}
	}

	// C3: pairing coherence. An indivisible per-write counter pair only
	// makes sense when every write is counter-atomic and the pair's
	// counter half has a separate region to land in.
	if e.PairsEveryWrite {
		if !e.WriteIsCounterAtomic(false) {
			fail("C3", "", "PairsEveryWrite without WriteIsCounterAtomic(annotated=false): unannotated writes would emit unpaired counter halves")
		}
		if !sep {
			fail("C3", "", "PairsEveryWrite without a separate counter region: there is no counter half to pair")
		}
	}
}

// checkPrograms symbolically executes every abstract program under the
// engine's persistence model and reconciles the verdicts with the
// engine's consistency claim. It returns the total violation count (the
// disclaiming direction of C4 needs it).
func checkPrograms(e engines.Policy, cfg *config.Config, rep *Report) int {
	model := ModelFor(e, cfg)
	total := 0
	for _, p := range Programs() {
		rep.Programs++
		res := verify.Verify(p.Trace, verify.Options{
			Arenas: p.Arenas,
			Model:  model,
		})
		total += len(res.Violations)
		if !e.CrashConsistent {
			continue // violations CONFIRM the disclaimer
		}
		for i := range res.Violations {
			v := res.Violations[i]
			rep.Findings = append(rep.Findings, Finding{
				Engine: e.Name, Rule: v.Inv, Program: p.Name,
				Message:   v.Message,
				Violation: &v,
			})
		}
	}
	return total
}

// checkRecovery runs C4's semantic half: tiny synthetic post-crash
// images pushed through the engine's real Recover.
func checkRecovery(e engines.Policy, cfg *config.Config, fail func(rule, program, format string, args ...interface{})) {
	lay := mem.NewLayout(cfg.MemoryBytes)
	var enc *ctrenc.Engine
	if e.Encrypted {
		enc = ctrenc.NewDefault()
	}
	addr := mem.Addr(0).LineAddr()
	var plain mem.Line
	for i := range plain {
		plain[i] = byte(0xA0 + i)
	}

	image := func(dataCtr, storedCtr uint64) map[mem.Addr]mem.Write {
		data := plain
		if enc != nil {
			data = enc.Encrypt(plain, addr, dataCtr)
		}
		writes := map[mem.Addr]mem.Write{
			addr: {Line: addr, Data: data, Tag: dataCtr, Sum: ctrenc.Checksum(plain, addr)},
		}
		if enc != nil {
			var ctrs [mem.CountersPerLine]uint64
			ctrs[lay.CounterSlot(addr)] = storedCtr
			cl := lay.CounterLine(addr)
			writes[cl] = mem.Write{Line: cl, Data: ctrenc.PackCounterLine(ctrs)}
		}
		return writes
	}

	// (i) A fully persisted image — data and matching counter both in
	// NVM — must round-trip to plaintext for every engine.
	space, _ := e.Recover(cfg, lay, enc, image(5, 5))
	if got := space.ReadLine(addr); got != plain {
		fail("C4", "", "Recover fails to round-trip a fully persisted image: counter and data both in NVM, plaintext not reconstructed")
	}

	// (iv) A tree-protected engine without write-through metadata must
	// detect a torn counter/tree path: data re-encrypted under a newer
	// counter than NVM holds fails the root walk and must be reported
	// unrecovered, or torn paths are silently accepted as valid data.
	if e.IntegrityProtected && !e.MetadataWriteThrough && e.StopLossLimit(cfg) < 0 {
		_, cost := e.Recover(cfg, lay, enc, image(6, 5))
		if cost.Unrecovered == 0 {
			fail("C4", "", "Recover accepts a torn integrity path (data one counter ahead of NVM) without reporting it unrecovered: the tree-root check is missing")
		}
	}

	limit := e.StopLossLimit(cfg)
	if limit < 1 {
		return
	}
	// (ii) A stale counter within the stop-loss window must be searched
	// and recovered: that is the entire point of the bound.
	space, cost := e.Recover(cfg, lay, enc, image(6, 5))
	if got := space.ReadLine(addr); got != plain {
		fail("C4", "", "Recover fails a stale counter 1 write behind NVM with StopLossLimit=%d: the stop-loss bound is not backed by recovery", limit)
	} else if cost.Trials == 0 {
		fail("C4", "", "Recover reconstructed a stale-counter line without reporting any candidate trials: the recovery cost model is broken")
	}
	// (iii) A counter beyond the window must be reported unrecovered —
	// silently accepting it would mask stop-loss violations.
	_, cost = e.Recover(cfg, lay, enc, image(uint64(5+limit+1), 5))
	if cost.Unrecovered == 0 {
		fail("C4", "", "Recover claims success on a counter %d writes beyond StopLossLimit=%d: the window bound is not enforced", limit+1, limit)
	}
}
