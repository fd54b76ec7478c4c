// Package engines defines Policy — the metadata policy of one evaluated
// memory-system design — and the nine builtin policies, one per design.
//
// The designs differ only in metadata policy, and a Policy value states
// all of it as data: where encryption counters live (co-located with the
// data, or in a separate counter region behind a counter cache), when a
// write is counter-atomic, whether write acceptance is strict FIFO,
// whether counter_cache_writeback() produces traffic and blocks persist
// barriers, how much integrity-tree metadata each counter write drags
// along (or whether metadata writes through with the data, SecPM-style),
// and which firmware reconstructs plaintext after a crash. The memory
// controller, the crash harness and enginecheck all read the same value;
// a new design is a new Policy registered as a machine spec, and a
// seeded bad engine is a builtin with one field changed.
//
// The package is a leaf: it imports only the functional model (config,
// mem, ctrenc), never the controller, so both internal/memctrl and
// in-package controller tests can depend on it without cycles.
package engines

import (
	"fmt"
	"sort"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/mem"
)

// Atomicity is the rule that decides whether a data write is
// counter-atomic.
type Atomicity uint8

const (
	// AtomicAnnotated honors the software CounterAtomic annotation.
	AtomicAnnotated Atomicity = iota
	// AtomicAlways makes every write counter-atomic (FCA).
	AtomicAlways
	// AtomicNever drops the annotation: no write is counter-atomic.
	AtomicNever
)

// TreePath is how an integrity-protected engine's tree-path writes (the
// line's ancestor tree nodes plus its MAC line) persist.
type TreePath uint8

const (
	// PathWithCounter carries the path into the ADR domain together
	// with the counter write it accompanies: the fence that makes the
	// counter durable makes the path durable too. Every builtin uses it.
	PathWithCounter TreePath = iota
	// PathDropped never writes the path (the "forgot to persist the
	// ancestor path" bug).
	PathDropped
	// PathUnordered writes the path without fence ordering.
	PathUnordered
)

// Recovery selects the post-crash firmware that rebuilds plaintext.
type Recovery uint8

const (
	// CounterRecovery decrypts every data line with the counter the
	// image holds; stale or missing counters yield garbage.
	CounterRecovery Recovery = iota
	// OsirisRecovery searches the stop-loss window for the counter
	// whose plaintext matches the line's persisted checksum.
	OsirisRecovery
	// TreeRecovery is CounterRecovery plus a root walk per line that
	// reports torn counter/tree paths unrecovered.
	TreeRecovery
)

// Policy is one design's metadata policy. Values are immutable and safe
// to copy: the controller holds one by value and reads its fields on the
// per-write path.
type Policy struct {
	// Name is the registry/spec name ("sca", "fca", ...).
	Name string
	// Design is the config.Design enum value this policy implements —
	// the enum is presentation sugar over the engine registry.
	Design config.Design

	// Encrypted reports whether writes are counter-mode encrypted.
	Encrypted bool
	// UsesCounterCache reports whether counters are cached on chip.
	UsesCounterCache bool
	// CoLocatesCounters reports whether the 8B counter travels with its
	// 64B data line as one widened 72B access.
	CoLocatesCounters bool
	// SeparateCounterWrites reports whether counters are written back
	// to a separate counter region with their own accesses.
	SeparateCounterWrites bool

	// FIFOAcceptance reports whether write acceptance is strictly FIFO
	// (FCA): a blocked counter-atomic write stalls every younger write.
	FIFOAcceptance bool
	// PairsEveryWrite reports whether each counter-atomic data write is
	// paired with its own non-coalescing counter-line write (FCA's
	// indivisible pair, which doubles its write traffic).
	PairsEveryWrite bool
	// Atomicity decides the final counter-atomicity of a data write
	// given its software annotation.
	Atomicity Atomicity

	// CounterWritebackEmits reports whether counter_cache_writeback()
	// produces a counter write at all (false when counters co-locate
	// with data, are absent, or are recovered from checksums).
	CounterWritebackEmits bool
	// CounterWritebackBlocks reports whether the primitive's acceptance
	// callback must wait for the counter write to enter the ADR domain.
	// The Ideal design pays the traffic but never the ordering — which
	// is exactly why it is not crash consistent.
	CounterWritebackBlocks bool

	// StopLoss enables the Osiris stop-loss rule: after cfg.StopLoss
	// rewrites a line's counter must head to NVM.
	StopLoss bool

	// IntegrityProtected reports whether the engine maintains persisted
	// integrity metadata (tree nodes and MACs) over the counters, so a
	// post-crash image must also be tree-verifiable (invariant V5).
	IntegrityProtected bool
	// MetadataWriteThrough reports that the combined counter+MAC
	// metadata line is enqueued with every data write (SecPM): metadata
	// is crash consistent by construction, and separate counter
	// durability is never at risk.
	MetadataWriteThrough bool
	// TreePath is how the tree-path writes persist.
	TreePath TreePath

	// Recovery selects the post-crash firmware. It is stated, not
	// derived from StopLoss: a stop-loss table over plain counter
	// recovery is a bug enginecheck must be able to express.
	Recovery Recovery

	// CrashConsistent is the design's crash-consistency claim: whether a
	// correctly annotated program recovers to a consistent plaintext
	// image from any crash point. The claim is an input, not a derived
	// fact — enginecheck verifies it in both directions against the rest
	// of the policy (a claiming engine must verify clean under the
	// V0–V4 invariants; a disclaiming engine must exhibit at least one
	// violating schedule, otherwise the disclaimer is unjustified).
	CrashConsistent bool
}

// RecoveryCost quantifies recovery work. Trials counts candidate
// decryptions (each a full-line AES operation); Recovered counts lines
// whose counter was stale in NVM and had to be searched for; Unrecovered
// counts lines whose candidate window exhausted (which then fail
// validation).
type RecoveryCost struct {
	Lines       int
	Trials      int
	Recovered   int
	Unrecovered int
}

// WriteIsCounterAtomic decides the final counter-atomicity of a data
// write given its software annotation.
func (p Policy) WriteIsCounterAtomic(annotated bool) bool {
	switch p.Atomicity {
	case AtomicAlways:
		return true
	case AtomicNever:
		return false
	}
	return annotated
}

// StopLossLimit returns the Osiris stop-loss bound under cfg: after this
// many rewrites a line's counter must head to NVM. Negative disables the
// rule entirely (0 writes the counter back with every data write).
func (p Policy) StopLossLimit(cfg *config.Config) int {
	if !p.StopLoss {
		return -1
	}
	return cfg.StopLoss
}

// TreePathWrites returns how many extra metadata line writes each
// counter write carries under cfg: the line's ancestor tree-node path
// plus its MAC line for a Bonsai-Merkle-tree engine, 0 for engines
// without a persisted tree, whose metadata travels with the data write,
// or whose path is dropped.
func (p Policy) TreePathWrites(cfg *config.Config) int {
	if !p.IntegrityProtected || p.MetadataWriteThrough || p.TreePath == PathDropped {
		return 0
	}
	return TreeDepth(cfg) + 1 // ancestor path + the line's MAC line
}

// Recover reconstructs the plaintext view of a post-crash NVM image the
// way this design's firmware would, from the completed device writes.
// The cost is zero for counter recovery; Osiris charges its checksum-
// guided candidate search (the quantity the Anubis follow-on optimizes)
// and tree recovery one MAC verification per line for its root walk.
func (p Policy) Recover(cfg *config.Config, lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) (*mem.Space, RecoveryCost) {

	switch p.Recovery {
	case OsirisRecovery:
		return recoverOsiris(cfg, lay, enc, writes)
	case TreeRecovery:
		return recoverCounters(lay, enc, writes, true)
	}
	return recoverCounters(lay, enc, writes, false)
}

// TreeDepth returns the number of interior Bonsai-Merkle-tree levels
// between a counter line and the (always on-chip) tree root for the
// given geometry: counter lines fan in CountersPerLine-to-one per level.
// With the Table-2 defaults (8GB memory, 64B lines, 8 counters per
// line) the tree is 8 levels deep.
func TreeDepth(cfg *config.Config) int {
	arity := uint64(cfg.CountersPerLine())
	counterLines := cfg.MemoryBytes / uint64(cfg.LineBytes) / arity
	depth := 0
	for n := counterLines; n > 1; n = (n + arity - 1) / arity {
		depth++
	}
	return depth
}

// recoverCounters decrypts every data line with the counter present in the
// image's counter region — stale or missing counters yield garbage,
// exactly as on real hardware. A nil encryption engine (plaintext design)
// copies lines verbatim.
//
// With verify it models Bonsai-Merkle-tree firmware: each decrypted line
// is checked against the tree by re-walking its ancestor path to the
// root (modeled through the persisted per-line checksum, the same
// device-side integrity witness Osiris recovery uses). A line whose
// check fails had a torn counter/tree path: it is reported unrecovered
// and stays garbled, exactly what a root mismatch means on real
// hardware. One trial is charged per line for the root walk's MAC
// verification; without verify the cost is zero.
func recoverCounters(lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write, verify bool) (*mem.Space, RecoveryCost) {

	space := mem.NewSpace()
	var cost RecoveryCost
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		if verify {
			cost.Lines++
			cost.Trials++
		}
		if enc == nil {
			space.WriteLine(addr, w.Data)
			continue
		}
		var ctr uint64
		if cl, ok := writes[lay.CounterLine(addr)]; ok {
			ctr = ctrenc.UnpackCounterLine(cl.Data)[lay.CounterSlot(addr)]
		}
		plain := enc.Decrypt(w.Data, addr, ctr)
		if verify && ctrenc.Checksum(plain, addr) != w.Sum {
			cost.Unrecovered++
		}
		space.WriteLine(addr, plain)
	}
	return space, cost
}

// recoverOsiris reconstructs plaintext the way Osiris-style firmware
// would: for each data line, try the counter stored in NVM plus up to
// StopLoss increments, accepting the first candidate whose decrypted
// plaintext matches the line's persisted ECC checksum. The stop-loss
// write rule guarantees the true counter lies within the window; a line
// whose window exhausts without a match stays garbled (and fails
// validation).
func recoverOsiris(cfg *config.Config, lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) (*mem.Space, RecoveryCost) {

	space := mem.NewSpace()
	var cost RecoveryCost
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		cost.Lines++
		var base uint64
		if cl, ok := writes[lay.CounterLine(addr)]; ok {
			base = ctrenc.UnpackCounterLine(cl.Data)[lay.CounterSlot(addr)]
		}
		recovered := false
		for c := base; c <= base+uint64(cfg.StopLoss); c++ {
			cost.Trials++
			plain := enc.Decrypt(w.Data, addr, c)
			if ctrenc.Checksum(plain, addr) == w.Sum {
				space.WriteLine(addr, plain)
				recovered = true
				if c != base {
					cost.Recovered++
				}
				break
			}
		}
		if !recovered {
			cost.Unrecovered++
			space.WriteLine(addr, enc.Decrypt(w.Data, addr, base))
		}
	}
	return space, cost
}

// The nine builtin policies: the paper's six (§6.1), the Osiris
// extension, and the two integrity-tree designs.
var (
	// Plaintext is an NVMM system without any encryption.
	Plaintext = Policy{Name: "noenc", Design: config.NoEncryption,
		Atomicity: AtomicNever, CrashConsistent: true}
	// Ideal coalesces counters freely and never orders their writebacks;
	// ccwb emits traffic but the barrier does not wait for it — which is
	// exactly why it disclaims crash consistency.
	Ideal = Policy{Name: "ideal", Design: config.Ideal,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true}
	// CoLocated moves the counter with the data over a widened 72b bus;
	// atomic by construction, serializing read + decrypt.
	CoLocated = Policy{Name: "colocated", Design: config.CoLocated,
		Encrypted: true, CoLocatesCounters: true, Atomicity: AtomicNever,
		CrashConsistent: true}
	// CoLocatedCC is CoLocated plus a counter cache, overlapping
	// decryption of cached counters with the data fetch.
	CoLocatedCC = Policy{Name: "colocatedcc", Design: config.CoLocatedCC,
		Encrypted: true, UsesCounterCache: true, CoLocatesCounters: true,
		Atomicity: AtomicNever, CrashConsistent: true}
	// FCA enforces the ready-bit pairing protocol for every write, in
	// strict FIFO acceptance order.
	FCA = Policy{Name: "fca", Design: config.FCA,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		FIFOAcceptance: true, PairsEveryWrite: true, Atomicity: AtomicAlways,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		CrashConsistent: true}
	// SCA pays the pairing protocol only for writes annotated
	// CounterAtomic; everything else coalesces until a ccwb drains it.
	SCA = Policy{Name: "sca", Design: config.SCA,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		CrashConsistent: true}
	// Osiris recovers counters from per-line checksums within a
	// stop-loss window; atomicity is never enforced and ccwb is a no-op.
	Osiris = Policy{Name: "osiris", Design: config.Osiris,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		Atomicity: AtomicNever, StopLoss: true, Recovery: OsirisRecovery,
		CrashConsistent: true}
	// BMT is SCA plus a persisted Bonsai Merkle tree: every counter
	// write additionally carries the line's ancestor tree-node path and
	// MAC into the counter write queue (Freij et al.'s streamlined tree
	// update), so the fence that makes a counter durable makes its path
	// durable too and V5 holds wherever V2 does.
	BMT = Policy{Name: "bmt", Design: config.BMT,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		IntegrityProtected: true, Recovery: TreeRecovery, CrashConsistent: true}
	// SecPM writes the combined counter+MAC metadata line through with
	// every data write (Zuo et al.); the counter write queue's
	// coalescing provides the paper's counter write coalescing. Crash
	// consistent by construction: no annotations, no ordering
	// primitives, no recovery search.
	SecPM = Policy{Name: "secpm", Design: config.SecPM,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		Atomicity: AtomicNever, IntegrityProtected: true,
		MetadataWriteThrough: true, CrashConsistent: true}
)

// builtins lists the builtin policies.
var builtins = []*Policy{&Plaintext, &Ideal, &CoLocated, &CoLocatedCC, &FCA, &SCA, &Osiris, &BMT, &SecPM}

// ByName returns the builtin policy with the given registry name.
func ByName(name string) (Policy, error) {
	for _, p := range builtins {
		if p.Name == name {
			return *p, nil
		}
	}
	return Policy{}, fmt.Errorf("engines: unknown metadata engine %q (valid: %v)", name, Names())
}

// Names lists the builtin policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for _, p := range builtins {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// ForDesign returns the builtin policy implementing the given design
// enum value.
func ForDesign(d config.Design) (Policy, error) {
	for _, p := range builtins {
		if p.Design == d {
			return *p, nil
		}
	}
	return Policy{}, fmt.Errorf("engines: no metadata engine for design %v", d)
}
