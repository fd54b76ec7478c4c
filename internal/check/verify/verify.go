// Package verify is the static crash-image verifier: an abstract
// interpreter over the trace IR that proves, for EVERY crash point of a
// recorded execution — not a sample — that all reachable persisted images
// satisfy the paper's crash-consistency invariants, or else emits a
// concrete counterexample crash schedule replayable through the crash
// harness (cmd/crashtest -schedule).
//
// # Crash model
//
// The model is the paper's extended-ADR failure semantics (§5.2.2) plus
// the cache reality every persistency protocol must survive:
//
//   - A store's new data may reach NVM at ANY time after the store — a
//     cache eviction needs no clwb. For a plain store the line is written
//     back encrypted under its bumped counter while the counter itself
//     stays in the volatile counter cache, so an eviction-persisted line
//     decrypts to garbage until its counter also persists (Eq. 4).
//   - A clwb/counter_cache_writeback is "in flight" from issue until the
//     next retired sfence: at a crash it has independently either reached
//     NVM or been lost.
//   - After the sfence retires, the writeback is DEFINITELY persistent.
//   - A CounterAtomic line persists data and counter atomically (§4.3),
//     whether written back explicitly or evicted; it is never garbled,
//     only atomically old or new.
//
// # Equivalence classes
//
// A crash point is an instant between two trace ops together with an
// outcome for every in-flight writeback — exponentially many raw crash
// states. Two prunings (WITCHER/Yat-style) make verification linear in
// trace length:
//
//   - Crash points between ops that do not change the reachable persisted
//     image set (reads, compute, transaction markers) collapse into one
//     representative class; only Write/Clwb/CCWB/Sfence ops open a new
//     class.
//   - Within a class the in-flight subsets are never enumerated: each
//     invariant is a two-literal implication ("switch persisted" and
//     "dependency not persisted"), so a violating subset exists iff the
//     switch is possibly-persisted while a dependency is not
//     definitely-persisted. The per-epoch persist-set facts (definite /
//     in-flight / volatile per line and per counter) summarize everything
//     the invariants can observe.
//
// Because eviction makes a store possibly-persistent immediately, every
// invariant is checked at the op that opens the earliest class where the
// antecedent can hold; all later classes in the same window are implied.
//
// # Invariants
//
//	V1  counter-atomic switch while an earlier store's DATA is not
//	    definitely persisted: a crash class persists the switch (eviction
//	    suffices) but drops the payload — publish-before-persist.
//	V2  counter-atomic switch while an earlier store's COUNTER is not
//	    definitely persisted: the published line decrypts to garbage in
//	    some class — the paper's §2.2 failure.
//	V3  in-place mutation inside a transaction before the log seal (the
//	    valid-flag CounterAtomic store) is definitely persisted: a class
//	    evicts the half-mutated line with no recoverable backup.
//	V4  durability: a line still volatile or unfenced at TxEnd or at the
//	    end of the trace — a class immediately after the "completed"
//	    program loses the committed effect.
//	V5  (tree-protected engines only) counter-atomic switch while an
//	    ancestor integrity-tree node of an earlier store is not
//	    definitely persisted: the published line fails MAC/tree
//	    verification after a crash even though it decrypts correctly —
//	    the counter problem again at tree scale.
//
// V1/V2 are the exhaustive forms of the dynamic linter's R3/R4, V3 of R5,
// V4 of R1/R2 (internal/check); every trace mutant the dynamic rules
// catch fails static verification too, with a reproducing schedule — the
// cross-validation suite in this package enforces exactly that.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Options configures one verification run.
type Options struct {
	// Arenas locates per-core log regions so the verifier can tell log
	// writes (prepare/commit stages) from in-place mutations. Leaving it
	// empty and IsLog nil disables V3, exactly like the dynamic linter's
	// R5.
	Arenas []persist.Arena
	// IsLog overrides the log classifier derived from Arenas.
	IsLog func(addr mem.Addr) bool
	// Core is recorded in emitted schedules (default 0).
	Core int
	// Model selects the engine-dependent persistence semantics. Nil
	// verifies under the default model — SCA-style separate counters
	// where only annotated stores persist atomically and ccwb is
	// fence-ordered — which is the machine the trace IR was recorded on.
	Model *Model
	// OnClass, when non-nil, receives one ClassState per crash-point
	// equivalence class, in class order: the initial class before any op
	// (OpIndex -1), then one per class-opening op (Write/Clwb/CCWB/
	// Sfence), snapshotted AFTER the op's persist-set effects applied —
	// the abstract state every crash point in the class observes. This
	// is how the class enumeration that drives V1–V4 is exported to the
	// pruning analysis (internal/check/prune) instead of being discarded
	// when verification ends. Lines is borrowed: the verifier refills
	// the same row buffer for every class, so the callee must copy the
	// rows before returning if it keeps them.
	OnClass func(ClassState)
}

// Model abstracts over the persistence semantics that differ between
// metadata engines, so one trace can be verified the way each design's
// hardware would persist it. The software annotations in the trace are
// interpreted unchanged — a CounterAtomic store is still the protocol's
// publication point, and the log seal is still detected from it — but
// the persist-set facts a store perturbs depend on the engine: whether
// data and counter land atomically, whether the counter dimension is at
// risk at all, and whether counter_cache_writeback() is ordered by the
// next fence.
//
// The zero Model (and a nil Options.Model) reproduces the verifier's
// historical behavior exactly: AtomicWrite = identity on the annotation,
// CounterFree = false, ordered CCWB, no integrity tree. Every field is
// phrased so its zero value selects that default — in particular the
// CCWB ordering flag is inverted (CCWBUnordered) so that &Model{} and a
// nil Options.Model are indistinguishable.
type Model struct {
	// AtomicWrite reports whether a store with the given software
	// annotation persists its data and counter atomically (the engine's
	// WriteIsCounterAtomic policy). Nil means the annotation itself.
	AtomicWrite func(annotated bool) bool
	// CounterFree reports that separate counter durability is never a
	// crash risk for this engine: plaintext (no counters), co-located
	// counters (travel with the line), checksum-recoverable counters
	// within a stop-loss window, or metadata written through with every
	// data write. Counter facts then track data facts.
	CounterFree bool
	// CCWBUnordered reports that counter_cache_writeback() emits traffic
	// the next retired sfence never waits for (Ideal): a CCWB op then
	// never makes any counter definitely persistent — the sound
	// abstraction of an unordered writeback. The zero value (false)
	// is the historical ordered semantics: the writeback's counter write
	// becomes definitely persistent at the next retired sfence.
	CCWBUnordered bool
	// TreeProtected reports that the engine maintains a persisted
	// integrity tree (ancestor tree nodes + MACs) over the counters, so
	// a commit switch additionally requires the publishing lines' tree
	// paths to be definitely persisted (invariant V5). The zero value
	// disables V5 — the historical counters-only analysis.
	TreeProtected bool
	// TreePathWithCounter reports that every counter write (an explicit
	// counter_cache_writeback and the counter half of a CounterAtomic
	// writeback) carries the line's ancestor tree-node path and MAC, so
	// the fence that makes the counter definite makes the path definite
	// too. When false under TreeProtected, tree paths are never written
	// back and V5 fires on every switch over an unsafe line.
	TreePathWithCounter bool
	// TreePathUnordered reports that tree-path writes are emitted but
	// never fence-ordered: the path never becomes definitely persistent
	// (the tree analogue of CCWBUnordered). Only meaningful under
	// TreeProtected with TreePathWithCounter.
	TreePathUnordered bool
}

// atomic resolves the engine-effective persistence atomicity of a store.
func (m Model) atomic(annotated bool) bool {
	if m.CounterFree {
		return true
	}
	if m.AtomicWrite != nil {
		return m.AtomicWrite(annotated)
	}
	return annotated
}

// Fact is the abstract persistence state of one dimension (data or
// counter) of one line, as the invariants observe it.
type Fact string

// The three persist-set facts. Volatile: NVM definitely does not hold
// the latest value through any tracked writeback (an eviction may still
// land it at any time — that is what makes a store possibly-persisted).
// InFlight: a writeback was issued and is independently landed-or-lost
// at a crash. Definite: a retired sfence made the value durable.
const (
	FactVolatile Fact = "volatile"
	FactInFlight Fact = "in-flight"
	FactDefinite Fact = "definite"
)

// LineFact is the per-line certificate row: everything the invariants
// can observe about one line inside one equivalence class.
type LineFact struct {
	Addr     uint64 `json:"addr"`
	StoredAt int    `json:"storedAt"`         // op index of the latest store
	Atomic   bool   `json:"atomic,omitempty"` // engine-effective counter atomicity
	InTx     bool   `json:"inTx,omitempty"`   // latest store inside the open tx
	Data     Fact   `json:"data"`
	Counter  Fact   `json:"counter"`
}

// ClassState is the abstract machine state that justifies merging every
// crash point of one equivalence class: the per-line persist-set facts
// (sorted by address), the epoch ordinal, and the transaction/seal
// context. Crash points between the class-opening op and the next
// class-opening op observe exactly this state, which is the certificate
// internal/check/prune serializes and re-checks.
type ClassState struct {
	Index    int        `json:"class"`
	OpIndex  int        `json:"op"`                 // class-opening op (-1: before any op)
	Boundary string     `json:"boundary"`           // opening op kind ("start" for the initial class)
	Epoch    int        `json:"epoch"`              // sfence-delimited persist window ordinal
	InTx     bool       `json:"inTx,omitempty"`     // a transaction is open
	SealOpen bool       `json:"sealOpen,omitempty"` // an unreleased log seal exists
	SealAddr uint64     `json:"sealAddr,omitempty"` // its line (SealOpen only)
	SealAt   int        `json:"sealAt,omitempty"`   // its op index (SealOpen only)
	Lines    []LineFact `json:"lines,omitempty"`
}

// fact folds a lineState dimension into the exported three-point state.
func fact(safe bool, wbAt int) Fact {
	switch {
	case safe:
		return FactDefinite
	case wbAt >= 0:
		return FactInFlight
	default:
		return FactVolatile
	}
}

// emitClass snapshots the current abstract state for the class opened by
// op i (or the initial class, i == -1) into the OnClass hook. The rows
// come from the address-sorted stored list and are written into one
// reused buffer, so a class costs exactly its rows.
func (v *verifier) emitClass(i int, boundary string) {
	if v.opts.OnClass == nil {
		return
	}
	st := ClassState{
		Index:    v.classes - 1,
		OpIndex:  i,
		Boundary: boundary,
		Epoch:    v.epoch,
		InTx:     v.inTx,
		SealOpen: v.sealSeen,
	}
	if v.sealSeen {
		st.SealAddr = uint64(v.sealLine)
		st.SealAt = v.sealAt
	}
	rows := v.rows[:0]
	for _, ls := range v.stored {
		rows = append(rows, LineFact{
			Addr:     uint64(ls.addr),
			StoredAt: ls.storedAt,
			Atomic:   ls.ca,
			InTx:     ls.storeInTx,
			Data:     fact(ls.dataSafe, ls.dataWBAt),
			Counter:  fact(ls.ctrSafe, ls.ctrWBAt),
		})
	}
	v.rows = rows
	if len(rows) > 0 {
		st.Lines = rows
	}
	v.opts.OnClass(st)
}

// Invariant documents one verifier invariant for tool catalogs.
type Invariant struct {
	ID  string
	Doc string
}

// Invariants returns the catalog of crash-consistency invariants this
// package checks, in ID order, for persistcheck -list and the
// enginecheck rule tables.
func Invariants() []Invariant {
	return []Invariant{
		{"V0", "trace is structurally valid (balanced transactions, known ops)"},
		{"V1", "no counter-atomic switch while an earlier store's data is not definitely persisted"},
		{"V2", "no counter-atomic switch while an earlier store's counter is not definitely persisted (garble on crash)"},
		{"V3", "no in-place transactional mutation before the log seal is definitely persisted"},
		{"V4", "every store definitely persisted at TxEnd and at end of trace (durability)"},
		{"V5", "no counter-atomic switch while an ancestor integrity-tree node of an earlier store is not definitely persisted (tree-protected engines)"},
	}
}

// Violation is one invariant breach, anchored to the op that opens the
// earliest violating crash class.
type Violation struct {
	Inv      string   // "V0".."V5"
	OpIndex  int      // op opening the violating class
	Addr     mem.Addr // the dependency/victim line (not the switch)
	Message  string
	Schedule *Schedule // reproducing crash schedule (nil for V0 and V5)
}

// String renders the violation in the linter's one-line form.
func (v Violation) String() string {
	return fmt.Sprintf("op %d: %s: %s", v.OpIndex, v.Inv, v.Message)
}

// Result summarizes one verified trace.
type Result struct {
	Ops        int // trace length
	Epochs     int // sfence-delimited persist windows
	Classes    int // crash-point equivalence classes enumerated
	Violations []Violation
}

// Clean reports whether every crash class satisfied every invariant.
func (r Result) Clean() bool { return len(r.Violations) == 0 }

// lineState is the per-line persist-set summary the invariants observe.
type lineState struct {
	addr      mem.Addr
	storedAt  int  // op index of the latest store (-1: never stored)
	ca        bool // latest store was CounterAtomic
	storeInTx bool // latest store happened inside the open transaction

	dataWBAt int  // in-flight clwb for the latest content (-1: none)
	dataSafe bool // NVM definitely holds the latest content

	ctrWBAt int  // in-flight counter writeback covering the latest bump (-1: none)
	ctrSafe bool // NVM counter definitely matches the latest content

	treeWBAt int  // in-flight tree-path writeback for the latest bump (-1: none)
	treeSafe bool // NVM ancestor tree nodes definitely match the latest content
}

// safe reports the line is definitely readable-as-latest after any crash.
func (l *lineState) safe() bool { return l.dataSafe && l.ctrSafe }

// verifier threads the abstract state through one core's trace.
type verifier struct {
	opts  Options
	model Model
	isLog func(mem.Addr) bool

	lines     map[mem.Addr]*lineState
	lineOrder []mem.Addr   // first-touch order, for deterministic scans
	stored    []*lineState // lines ever stored, sorted by address (OnClass runs only)
	rows      []LineFact   // emitClass's reused row buffer
	groups    map[mem.Addr][]mem.Addr

	inTx     bool
	sealSeen bool     // a CounterAtomic log store occurred in the open tx
	sealLine mem.Addr // its line
	sealAt   int

	epoch   int
	classes int

	res Result
}

// Verify statically checks every crash-point equivalence class of tr.
// A structurally invalid trace yields a single V0 violation (the stream
// cannot be trusted) and no further analysis. The trace arrives as a
// cursor so campaigns can verify binary trace files they never
// materialize; *trace.Trace satisfies Source directly.
func Verify(tr trace.Source, opts Options) Result {
	if err := tr.Validate(); err != nil {
		return Result{Ops: tr.Len(), Violations: []Violation{{
			Inv: "V0", Message: "invalid trace: " + err.Error(),
		}}}
	}
	v := &verifier{
		opts:   opts,
		lines:  make(map[mem.Addr]*lineState),
		groups: make(map[mem.Addr][]mem.Addr),
	}
	if opts.Model != nil {
		// The zero Model IS the default semantics, so copying an explicit
		// &Model{} here is identical to leaving v.model zero — nil and
		// zero Options.Model cannot diverge.
		v.model = *opts.Model
	}
	switch {
	case opts.IsLog != nil:
		v.isLog = opts.IsLog
	case len(opts.Arenas) > 0:
		arenas := opts.Arenas
		v.isLog = func(a mem.Addr) bool {
			for _, ar := range arenas {
				if a >= ar.LogBase() && a < ar.HeapBase() {
					return true
				}
			}
			return false
		}
	}
	v.res.Ops = tr.Len()
	v.classes = 1 // the class before any op
	v.emitClass(-1, "start")
	var op trace.Op
	for i, n := 0, tr.Len(); i < n; i++ {
		tr.Op(i, &op)
		v.step(tr, i, op)
	}
	v.finish(tr)
	v.res.Classes = v.classes
	v.res.Epochs = v.epoch + 1
	sort.SliceStable(v.res.Violations, func(a, b int) bool {
		x, y := v.res.Violations[a], v.res.Violations[b]
		if x.OpIndex != y.OpIndex {
			return x.OpIndex < y.OpIndex
		}
		if x.Inv != y.Inv {
			return x.Inv < y.Inv
		}
		return x.Addr < y.Addr
	})
	return v.res
}

func (v *verifier) line(a mem.Addr) *lineState {
	a = a.LineAddr()
	ls, ok := v.lines[a]
	if !ok {
		ls = &lineState{addr: a, storedAt: -1, dataWBAt: -1, ctrWBAt: -1, treeWBAt: -1}
		v.lines[a] = ls
		v.lineOrder = append(v.lineOrder, a)
		g := ctrGroup(a)
		v.groups[g] = append(v.groups[g], a)
	}
	return ls
}

// ctrGroup returns the counter-line group base covering addr, matching
// the persist runtime's coalescing (mem.CountersPerLine data lines per
// counter line).
func ctrGroup(addr mem.Addr) mem.Addr {
	return addr.LineAddr() &^ (mem.CountersPerLine*mem.LineBytes - 1)
}

// step advances the machine by one op, running the invariant checks that
// the op's crash class makes decidable. Checks observe the state BEFORE
// the op is applied — the class opened by op i contains the op's own
// effect as possibly-persisted, and the pre-state is what it publishes.
func (v *verifier) step(tr trace.Source, i int, op trace.Op) {
	before := v.classes
	switch op.Kind {
	case trace.Write:
		v.classes++
		if op.CounterAtomic {
			v.checkSwitch(tr, i, op)
		} else if v.inTx && v.isLog != nil && !v.isLog(op.Addr) {
			v.checkMutate(tr, i, op)
		}
		v.applyWrite(i, op)
	case trace.Clwb:
		v.classes++
		ls := v.line(op.Addr)
		if ls.storedAt >= 0 && !ls.dataSafe && ls.dataWBAt < 0 {
			ls.dataWBAt = i
			if ls.ca {
				// A CounterAtomic writeback carries its counter — and, on
				// a tree-protected engine whose metadata travels with the
				// counter write, the ancestor tree path too.
				ls.ctrWBAt = i
				if v.model.TreeProtected && v.model.TreePathWithCounter {
					ls.treeWBAt = i
				}
			}
		}
	case trace.CCWB:
		v.classes++
		if v.model.CCWBUnordered {
			// The writeback emits traffic the fence never waits for: no
			// counter becomes definitely persistent through it.
			break
		}
		g := ctrGroup(op.Addr)
		for _, a := range v.groups[g] {
			ls := v.lines[a]
			if ls.storedAt >= 0 && !ls.ca && !ls.ctrSafe && ls.ctrWBAt < 0 {
				ls.ctrWBAt = i
				if v.model.TreeProtected && v.model.TreePathWithCounter {
					ls.treeWBAt = i
				}
			}
		}
	case trace.Sfence:
		v.classes++
		v.epoch++
		for _, a := range v.lineOrder {
			ls := v.lines[a]
			if ls.dataWBAt >= 0 {
				ls.dataSafe = true
				ls.dataWBAt = -1
			}
			if ls.ctrWBAt >= 0 {
				ls.ctrSafe = true
				ls.ctrWBAt = -1
			}
			if ls.treeWBAt >= 0 {
				if !v.model.TreePathUnordered {
					ls.treeSafe = true
				}
				ls.treeWBAt = -1
			}
		}
	case trace.TxBegin:
		v.inTx = true
		v.sealSeen = false
	case trace.TxEnd:
		v.checkTxEnd(tr, i)
		v.inTx = false
		v.sealSeen = false
		for _, a := range v.lineOrder {
			v.lines[a].storeInTx = false
		}
	}
	if v.classes != before {
		v.emitClass(i, op.Kind.String())
	}
}

// applyWrite updates the persist-set facts for a store. The line's
// atomicity flag is the ENGINE-effective one (a CounterFree engine makes
// every counter exactly as safe as its data); seal detection keys on the
// raw software annotation, which is the protocol structure regardless of
// how the engine persists it.
func (v *verifier) applyWrite(i int, op trace.Op) {
	ls := v.line(op.Addr)
	if ls.storedAt < 0 && v.opts.OnClass != nil {
		// First store to the line: it joins the sorted stored list for
		// good (a line is never un-stored). Only emitClass reads the
		// list, so a run that exports no classes keeps none.
		at, _ := slices.BinarySearchFunc(v.stored, ls.addr, func(x *lineState, a mem.Addr) int {
			return cmp.Compare(x.addr, a)
		})
		v.stored = slices.Insert(v.stored, at, ls)
	}
	ls.storedAt = i
	ls.ca = v.model.atomic(op.CounterAtomic)
	ls.storeInTx = v.inTx
	// For an atomic line the counter is exactly as safe as the data,
	// tracked through the data writeback; for a plain store the counter
	// bump sits in the volatile counter cache and persists independently.
	ls.dataSafe = false
	ls.dataWBAt = -1
	ls.ctrSafe = false
	ls.ctrWBAt = -1
	ls.treeSafe = false
	ls.treeWBAt = -1
	if op.CounterAtomic && v.inTx && v.isLog != nil && v.isLog(op.Addr) {
		if v.sealSeen && op.Addr.LineAddr() == v.sealLine {
			// The commit record releases the seal.
			v.sealSeen = false
		} else {
			v.sealSeen = true
			v.sealLine = op.Addr.LineAddr()
			v.sealAt = i
		}
	}
}

// sealDurable reports whether the open transaction's seal is definitely
// persisted (valid flag readable after every crash).
func (v *verifier) sealDurable() bool {
	if !v.sealSeen {
		return false
	}
	return v.lines[v.sealLine].safe()
}

// checkSwitch verifies V1/V2/V5 at a CounterAtomic store: in the class
// this op opens, the switch line is possibly-persisted (eviction
// suffices), so every earlier store it publishes must already be
// definitely readable — and, on a tree-protected engine, definitely
// verifiable: its ancestor tree nodes persisted too.
func (v *verifier) checkSwitch(tr trace.Source, i int, op trace.Op) {
	target := op.Addr.LineAddr()
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if a == target || ls.storedAt < 0 {
			continue
		}
		if !ls.safe() {
			if !ls.dataSafe {
				v.res.Violations = append(v.res.Violations, Violation{
					Inv: "V1", OpIndex: i, Addr: a,
					Message: fmt.Sprintf("counter-atomic switch of %#x while data of line %#x (stored at op %d) is not definitely persisted",
						target, a, ls.storedAt),
					Schedule: v.switchSchedule(tr, i, ls),
				})
				continue
			}
			v.res.Violations = append(v.res.Violations, Violation{
				Inv: "V2", OpIndex: i, Addr: a,
				Message: fmt.Sprintf("counter-atomic switch of %#x while the counter of line %#x (stored at op %d) is not definitely persisted: the line decrypts to garbage in some crash class",
					target, a, ls.storedAt),
				Schedule: v.switchSchedule(tr, i, ls),
			})
			continue
		}
		if v.model.TreeProtected && !ls.treeSafe {
			// Data and counter are durable but an ancestor tree node is
			// not: after a crash the line fails integrity verification
			// even though it would decrypt correctly. The functional
			// replay harness has no tree to lose, so no Schedule.
			v.res.Violations = append(v.res.Violations, Violation{
				Inv: "V5", OpIndex: i, Addr: a,
				Message: fmt.Sprintf("counter-atomic switch of %#x while an ancestor tree node of line %#x (stored at op %d) is not definitely persisted: the line fails integrity verification in some crash class",
					target, a, ls.storedAt),
			})
		}
	}
}

// checkMutate verifies V3 at an in-place transactional store: the store
// is possibly-persisted (and possibly garbled) from this class onward, so
// the log seal must already be durable or the mutation is unrecoverable.
func (v *verifier) checkMutate(tr trace.Source, i int, op trace.Op) {
	if v.sealDurable() {
		return
	}
	why := "no counter-atomic log seal has occurred"
	if v.sealSeen {
		why = fmt.Sprintf("the seal at op %d is not definitely persisted", v.sealAt)
	}
	v.res.Violations = append(v.res.Violations, Violation{
		Inv: "V3", OpIndex: i, Addr: op.Addr.LineAddr(),
		Message: fmt.Sprintf("in-place mutation of line %#x while %s: an eviction class persists the garbled line with no recoverable backup",
			op.Addr.LineAddr(), why),
		Schedule: v.mutateSchedule(i, op),
	})
}

// checkTxEnd verifies V4 at a transaction boundary: everything the
// transaction stored must be definitely readable, or the class right
// after TxEnd loses a committed effect.
func (v *verifier) checkTxEnd(tr trace.Source, i int) {
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if !ls.storeInTx || ls.storedAt < 0 || ls.safe() {
			continue
		}
		v.res.Violations = append(v.res.Violations, Violation{
			Inv: "V4", OpIndex: i, Addr: a,
			Message: fmt.Sprintf("line %#x (stored at op %d) not definitely persisted at TxEnd",
				a, ls.storedAt),
			Schedule: v.durabilitySchedule(i, ls),
		})
	}
}

// finish verifies V4 at the end of the trace: the program has completed,
// so every store must be definitely readable.
func (v *verifier) finish(tr trace.Source) {
	n := tr.Len()
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if ls.storedAt < 0 || ls.safe() {
			continue
		}
		v.res.Violations = append(v.res.Violations, Violation{
			Inv: "V4", OpIndex: n - 1, Addr: a,
			Message: fmt.Sprintf("line %#x (stored at op %d) not definitely persisted at end of trace",
				a, ls.storedAt),
			Schedule: v.durabilitySchedule(n-1, ls),
		})
	}
}
