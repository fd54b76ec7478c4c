// Package memctrl implements the encrypted NVMM memory controller of the
// paper's Figure 11: an encryption engine with a counter cache, a data
// write queue, a counter write queue, and the counter-atomicity protocol
// that guarantees a data line and its encryption counter persist together.
//
// The evaluated designs differ only in policy, and the controller states
// none of it: every design decision — counter placement, atomicity,
// acceptance order, writeback behavior — is a field of the
// machine/engines.Policy value it is built with. The controller owns the
// mechanism (queues, counter cache, encryption pipeline, issue
// scheduling); the policy answers the design questions. Adding a design
// means adding a Policy value, not editing this package.
//
// Counter-atomicity protocol: a CA write is accepted only when the data
// write queue and the counter write queue both have a free entry; both
// entries are created together with the ready bit set (the paper's steps
// ⑤–⑦ collapse to the acceptance instant). Entries in a queue are
// ADR-protected: on power failure every ready entry drains to NVM. Because
// a CA pair is accepted atomically, a crash can never persist one half.
package memctrl

import (
	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine/engines"
	"encnvm/internal/mem"
	"encnvm/internal/nvm"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// forwardLatency approximates servicing a read from a matching write-queue
// entry instead of the NVM array.
const forwardLatency = 5 * sim.Nanosecond

// acceptWindow bounds how far the out-of-order acceptance scan looks past
// the oldest blocked request — a finite scheduler lookahead, which also
// keeps acceptance linear when the shutdown flush enqueues tens of
// thousands of writebacks at once.
const acceptWindow = 64

// counterLinger is how long a counter-line write may sit in the (ADR
// protected) counter write queue before it must issue to the device.
// Lingering is safe — queued entries survive power failure — and is where
// counter-write coalescing happens: eight data lines share a counter line
// and transactions rewrite the same log-slot counter lines, so a short
// linger absorbs most counter updates (Fig. 14's traffic reduction).
const counterLinger = 2 * sim.Microsecond

// entry is one in-flight write: accepted into a queue, possibly already
// issued to the device, removed at device completion. All queued entries
// are ready (ADR-drainable); unready requests wait in the accept FIFO
// outside the queues.
type entry struct {
	addr     mem.Addr
	data     mem.Line
	nbytes   int
	tag      uint64   // encryption counter (ground truth for the harness)
	sum      uint16   // plaintext checksum (the persisted ECC model)
	ca       bool     // counter-atomic data write (never coalesced)
	eligible bool     // encryption pipeline done; may issue
	issued   bool     // device write dispatched
	done     bool     // device write completed
	deadline sim.Time // counter entries: must issue by this time
	// syncCtr marks a co-located entry whose 72B access carries its
	// counter (tag): completion also syncs the image's counter slot. A
	// flag, not a callback — closures here allocate once per write.
	syncCtr bool
}

// writeReq is a write awaiting acceptance.
type writeReq struct {
	addr     mem.Addr
	plain    mem.Line
	ca       bool
	isCtr    bool     // counter-line write (ccwb or eviction)
	ccwb     bool     // isCtr via counter_cache_writeback: dirty-checked at its turn
	accepted func()   // fires at acceptance (persistence now guaranteed)
	arrival  sim.Time // for queueing-delay stats
}

// Controller is the memory controller for one simulated system.
type Controller struct {
	eng *sim.Engine
	cfg *config.Config
	// pol is the design policy, held by value: the per-write paths read
	// its fields directly. The guard test pins it to engines.Policy.
	pol engines.Policy
	// stopLossLimit is pol.StopLossLimit resolved against cfg at build;
	// negative disables the stop-loss rule.
	stopLossLimit int
	dev           *nvm.Device
	st            *stats.Stats

	layout mem.Layout
	enc    *ctrenc.Engine
	ctrs   *ctrenc.Counters
	ctrC   *cache.Cache // nil unless the design uses a counter cache

	dataQ     []*entry
	counterQ  []*entry
	pending   []*writeReq // FIFO accept queue (backpressure)
	accepting bool        // reentrancy guard for tryAccept

	// entryPool recycles queue entries (ROADMAP item 2: entry pooling).
	// The queues are bounded by the configured capacities, so New
	// pre-allocates one slab covering both; retire returns entries here
	// and the accept path reuses them, making the steady-state write
	// path free of per-write entry allocations.
	entryPool []*entry

	// reqPool recycles accept-FIFO requests the same way (ROADMAP item
	// 2: writeReq pooling). The FIFO is bounded in steady state by the
	// replay cores' backpressure threshold; the slab covers that, and
	// overflow (shutdown-flush storms) falls back to the heap via
	// newReq.
	reqPool []*writeReq

	// persistSink, when non-nil, receives the instant of every
	// ADR-visible state change: a queue entry accepted, refreshed or
	// completed, a device-image write landing, or the dirty counter-
	// cache set changing. Between two crash deadlines with no sink
	// instant in the half-open interval between them, the post-crash
	// NVM state is identical — the dynamic refinement the crash
	// campaign layers over the static class partition. Nil by default:
	// one nil check on the hot paths.
	persistSink func(sim.Time)

	// pb, when non-nil, receives acceptance spans, encryption-pipeline
	// occupancy, and queue-depth samples. Nil by default (one nil check
	// on the hot paths).
	pb *probe.Probe

	// The scheduler dispatches a bounded number of device writes per
	// queue; entries waiting behind the window remain coalescible, which
	// is where SCA's counter-write coalescing (§6.3.3) happens.
	dataIssued    int
	counterIssued int

	// Read-queue capacity (Table 2: 32 entries): reads beyond it wait
	// their turn in arrival order.
	readsInFlight int
	readWaiters   []func()

	// stopLossLag counts, per data line, writes since the line's counter
	// last headed to NVM; nil unless the policy enforces a stop-loss rule.
	stopLossLag map[mem.Addr]int

	// treeExtraBytes widens every fresh counter-queue entry by the
	// policy's integrity-tree path (ancestor tree nodes + MAC line, BMT):
	// the path travels with the counter write, so coalescing a counter
	// write coalesces its path too — Freij-style streamlined tree
	// updates. Zero for engines without a persisted tree.
	treeExtraBytes int
}

// New builds a controller over the given device, with the given design
// policy supplying every design decision.
func New(eng *sim.Engine, cfg *config.Config, pol engines.Policy, dev *nvm.Device, st *stats.Stats) *Controller {
	mc := &Controller{
		eng:            eng,
		cfg:            cfg,
		pol:            pol,
		stopLossLimit:  pol.StopLossLimit(cfg),
		treeExtraBytes: cfg.LineBytes * pol.TreePathWrites(cfg),
		dev:            dev,
		st:             st,
		layout:         dev.Layout(),
		ctrs:           ctrenc.NewCounters(),
	}
	if pol.Encrypted {
		mc.enc = ctrenc.NewDefault()
	}
	if pol.UsesCounterCache {
		mc.ctrC = cache.New(cfg.CounterCache)
	}
	if mc.stopLossLimit >= 0 {
		mc.stopLossLag = make(map[mem.Addr]int)
	}
	// Pre-size the queues to their configured capacities and carve the
	// entry pool out of one slab, so the steady-state accept/retire
	// cycle never allocates.
	mc.dataQ = make([]*entry, 0, cfg.DataWriteQueue)
	mc.counterQ = make([]*entry, 0, cfg.CounterWriteQueue)
	slab := make([]entry, cfg.DataWriteQueue+cfg.CounterWriteQueue)
	mc.entryPool = make([]*entry, len(slab))
	for i := range slab {
		mc.entryPool[i] = &slab[i]
	}
	// The accept FIFO is bounded in steady state by the cores'
	// writeback backpressure (~2× the acceptance window); size the
	// request slab past that so only flush storms hit the heap.
	reqSlab := make([]writeReq, 4*acceptWindow)
	mc.reqPool = make([]*writeReq, len(reqSlab))
	for i := range reqSlab {
		mc.reqPool[i] = &reqSlab[i]
	}
	return mc
}

// getEntry takes a zeroed entry from the pool, falling back to the heap
// when the pool is empty (possible only when stop-loss counter writes
// push the counter queue past its nominal capacity).
func (mc *Controller) getEntry() *entry {
	if n := len(mc.entryPool); n > 0 {
		e := mc.entryPool[n-1]
		mc.entryPool[n-1] = nil
		mc.entryPool = mc.entryPool[:n-1]
		return e
	}
	return mc.newEntry()
}

// newEntry is the pool-miss path, kept separate so the allocation has
// one named site (hotalloc allowlist: the pool bounds it to queue
// overflow, not one per write).
func (mc *Controller) newEntry() *entry { return new(entry) }

// putEntry zeroes a retired entry and returns it to the pool. Entries
// beyond the pool's capacity (stop-loss overflow) are dropped for the
// GC to collect.
func (mc *Controller) putEntry(e *entry) {
	*e = entry{}
	if n := len(mc.entryPool); n < cap(mc.entryPool) {
		mc.entryPool = mc.entryPool[:n+1]
		mc.entryPool[n] = e
	}
}

// SetPersistEpochSink attaches (or, with nil, detaches) the persist-
// epoch sink. Call before the run starts; the sink must not re-enter
// the controller.
func (mc *Controller) SetPersistEpochSink(fn func(sim.Time)) { mc.persistSink = fn }

// persistEpoch reports an ADR-visible state change at the current
// instant.
func (mc *Controller) persistEpoch() {
	if mc.persistSink != nil {
		mc.persistSink(mc.eng.Now())
	}
}

// getReq takes a zeroed request from the pool, falling back to the heap
// when the accept FIFO outgrows the slab (shutdown-flush storms).
func (mc *Controller) getReq() *writeReq {
	if n := len(mc.reqPool); n > 0 {
		r := mc.reqPool[n-1]
		mc.reqPool[n-1] = nil
		mc.reqPool = mc.reqPool[:n-1]
		return r
	}
	return mc.newReq()
}

// newReq is the pool-miss path, kept separate so the allocation has one
// named site (hotalloc allowlist: bounded to FIFO overflow, not one per
// write).
func (mc *Controller) newReq() *writeReq { return new(writeReq) }

// putReq zeroes a consumed request and returns it to the pool. Requests
// beyond the slab's capacity are dropped for the GC. Safe to call the
// moment acceptance has copied what it needs: the accepted callback is
// scheduled by value before release.
func (mc *Controller) putReq(r *writeReq) {
	*r = writeReq{}
	if n := len(mc.reqPool); n < cap(mc.reqPool) {
		mc.reqPool = mc.reqPool[:n+1]
		mc.reqPool[n] = r
	}
}

// pushData appends e to the data queue. Acceptance checks capacity
// first, so this never grows the pre-sized backing array.
func (mc *Controller) pushData(e *entry) {
	n := len(mc.dataQ)
	mc.dataQ = mc.dataQ[:n+1]
	mc.dataQ[n] = e
}

// pushCounter appends e to the counter queue, growing only on stop-loss
// overflow past the configured capacity.
func (mc *Controller) pushCounter(e *entry) {
	n := len(mc.counterQ)
	if n < cap(mc.counterQ) {
		mc.counterQ = mc.counterQ[:n+1]
		mc.counterQ[n] = e
		return
	}
	mc.counterQ = append(mc.counterQ, e)
}

// Counters exposes the authoritative per-line counter state (the values
// most recently used for encryption) for the crash harness and recovery.
func (mc *Controller) Counters() *ctrenc.Counters { return mc.ctrs }

// Encryption returns the functional encryption engine, or nil for the
// NoEncryption design.
func (mc *Controller) Encryption() *ctrenc.Engine { return mc.enc }

// Layout returns the data/counter address layout.
func (mc *Controller) Layout() mem.Layout { return mc.layout }

// SetProbe attaches the observability probe (nil detaches it).
func (mc *Controller) SetProbe(p *probe.Probe) { mc.pb = p }

// probeQueues samples the queue depths into the timeline's counter track.
func (mc *Controller) probeQueues() {
	if mc.pb == nil {
		return
	}
	mc.pb.QueueDepth(mc.eng.Now(), len(mc.dataQ), len(mc.counterQ), len(mc.pending))
}

// DirtyCounterCount reports the number of dirty counter-cache lines (0
// when the design has no counter cache) — an observability gauge.
func (mc *Controller) DirtyCounterCount() int {
	if mc.ctrC == nil {
		return 0
	}
	return mc.ctrC.DirtyCount()
}

// EncryptedWrites reports how many line encryptions the controller has
// performed (the global counter-advance count).
func (mc *Controller) EncryptedWrites() uint64 { return mc.ctrs.Global() }

// ---------------------------------------------------------------------------
// Read path

// Read fetches the data line at addr. done fires when decrypted data would
// be available to fill the caches. The actual plaintext flows through the
// replay engine's image; the controller provides timing and traffic.
// Reads beyond the read queue's capacity wait in arrival order.
func (mc *Controller) Read(addr mem.Addr, done func()) {
	addr = addr.LineAddr()

	// Forward from an in-flight or waiting write if possible.
	if mc.findWrite(addr) {
		mc.st.Inc("mc.read_forwards", 1)
		mc.eng.Schedule(forwardLatency, done)
		return
	}

	if mc.readsInFlight >= mc.cfg.ReadQueueEntries {
		mc.st.Inc("mc.read_queue_full", 1)
		mc.readWaiters = append(mc.readWaiters, func() { mc.Read(addr, done) })
		return
	}
	mc.readsInFlight++
	userDone := done
	done = func() {
		mc.readsInFlight--
		if len(mc.readWaiters) > 0 {
			next := mc.readWaiters[0]
			mc.readWaiters = mc.readWaiters[1:]
			mc.eng.Schedule(0, next)
		}
		userDone()
	}

	switch {
	case !mc.pol.Encrypted:
		mc.dev.Read(addr, mc.cfg.AccessBytes(), func(mem.Line, bool) { done() })

	case mc.pol.CoLocatesCounters && !mc.pol.UsesCounterCache:
		// No counter cache: the counter arrives with the data, so
		// decryption strictly follows the read (Fig. 6a).
		mc.dev.Read(addr, mc.cfg.AccessBytes(), func(mem.Line, bool) {
			mc.eng.Schedule(mc.cfg.CryptoLatency, done)
		})

	case mc.pol.CoLocatesCounters:
		cl := mc.layout.CounterLine(addr)
		res := mc.ctrC.Access(cl, false)
		// Co-located counters are never dirty on-chip: the line is
		// cleaned and a dirty victim dropped, without a writeback.
		if mc.ctrC.Clean(cl) || (res.VictimValid && res.VictimDirty) {
			mc.persistEpoch() // the dirty counter-cache set just shrank
		}
		if res.Hit {
			mc.st.Inc(stats.CounterCacheHits, 1)
			// OTP generation overlaps the data fetch (Fig. 6b).
			mc.join2(addr, mc.cfg.CryptoLatency, done)
		} else {
			mc.st.Inc(stats.CounterCacheMiss, 1)
			// The 72B access brings the counter; decrypt after.
			mc.dev.Read(addr, mc.cfg.AccessBytes(), func(mem.Line, bool) {
				mc.eng.Schedule(mc.cfg.CryptoLatency, done)
			})
		}

	default: // separate counter region + counter cache (Ideal, FCA, SCA, Osiris)
		cl := mc.layout.CounterLine(addr)
		res := mc.ctrC.Access(cl, false)
		mc.evictCounterVictim(res)
		if res.Hit {
			mc.st.Inc(stats.CounterCacheHits, 1)
			mc.join2(addr, mc.cfg.CryptoLatency, done)
		} else {
			mc.st.Inc(stats.CounterCacheMiss, 1)
			// The read stalls until the counter line arrives from
			// NVM, then OTP generation, overlapped with the data
			// fetch (§5.2.1 "Counter Cache Miss").
			remaining := 2
			dec := func() {
				remaining--
				if remaining == 0 {
					done()
				}
			}
			mc.dev.Read(addr, 64, func(mem.Line, bool) { dec() })
			mc.dev.Read(cl, 64, func(mem.Line, bool) {
				mc.eng.Schedule(mc.cfg.CryptoLatency, dec)
			})
		}
	}
}

// join2 runs done when both the data fetch for addr and an on-chip delay
// (OTP generation) have elapsed.
func (mc *Controller) join2(addr mem.Addr, delay sim.Time, done func()) {
	remaining := 2
	dec := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	mc.dev.Read(addr, mc.cfg.AccessBytes(), func(mem.Line, bool) { dec() })
	mc.eng.Schedule(delay, dec)
}

func (mc *Controller) findWrite(addr mem.Addr) bool {
	for _, e := range mc.dataQ {
		if e.addr == addr {
			return true
		}
	}
	for _, r := range mc.pending {
		if !r.isCtr && r.addr == addr {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Write path

// Write writes back the plaintext line at addr. ca marks a store to a
// CounterAtomic variable; the policy decides the write's final atomicity
// (FCA forces it for every write, co-located and checksum-recovery
// engines never enforce it). accepted fires when the write's persistence
// is guaranteed (entered the ADR domain, with its counter where the
// design requires one).
func (mc *Controller) Write(addr mem.Addr, plain mem.Line, ca bool, accepted func()) {
	addr = addr.LineAddr()
	ca = mc.pol.WriteIsCounterAtomic(ca)
	if ca {
		mc.st.Inc(stats.CAWrites, 1)
	} else {
		mc.st.Inc(stats.NonCAWrites, 1)
	}
	req := mc.getReq()
	req.addr, req.plain, req.ca, req.accepted, req.arrival =
		addr, plain, ca, accepted, mc.eng.Now()
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// CounterWriteback implements counter_cache_writeback(addr) (§4.3): if the
// counter line covering addr is dirty in the counter cache, write it back
// (without invalidating). accepted fires when the counter write is in the
// ADR domain — immediately if there was nothing to write.
func (mc *Controller) CounterWriteback(addr mem.Addr, accepted func()) {
	mc.st.Inc(stats.CCWBs, 1)
	if !mc.pol.CounterWritebackEmits {
		// Co-located designs have no separate counters to write, and
		// checksum-recovery engines make the primitive unnecessary:
		// recovery regenerates counters from the persisted ECC within
		// the stop-loss window.
		mc.eng.Schedule(0, accepted)
		return
	}
	// The dirty check must happen at the request's turn in acceptance
	// order, not now: the clwbs the program issued just before this
	// ccwb may still await acceptance, and only acceptance bumps their
	// counters. Checking early would silently skip exactly the counters
	// the barrier is meant to persist.
	cl := mc.layout.CounterLine(addr)
	req := mc.getReq()
	req.addr, req.isCtr, req.ccwb, req.arrival = cl, true, true, mc.eng.Now()
	if !mc.pol.CounterWritebackBlocks {
		// The Ideal design pays the counter write traffic but never
		// the ordering: the barrier does not wait for the counter to
		// enter the ADR domain — which is exactly why it is not crash
		// consistent.
		mc.eng.Schedule(0, accepted)
	} else {
		req.accepted = accepted
	}
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// enqueueCounterWrite queues a standalone (always-ready) write of the
// counter line cl with its current packed values.
func (mc *Controller) enqueueCounterWrite(cl mem.Addr, accepted func()) {
	req := mc.getReq()
	req.addr, req.isCtr, req.accepted, req.arrival = cl, true, accepted, mc.eng.Now()
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// packCounterLine snapshots the current values of the eight counters
// stored in counter line cl.
func (mc *Controller) packCounterLine(cl mem.Addr) mem.Line {
	var vals [mem.CountersPerLine]uint64
	for i, da := range mc.layout.DataLinesOf(cl) {
		vals[i] = mc.ctrs.Current(da)
	}
	return ctrenc.PackCounterLine(vals)
}

// tryAccept admits pending writes while queue capacity allows. A
// counter-atomic write needs space in both queues and is admitted as an
// atomic pair; a regular write needs only the data queue.
//
// Acceptance order is the design's key lever:
//
//   - FCA accepts strictly in FIFO order, so a CA write stuck waiting for
//     counter-queue space blocks every younger write behind it — the
//     serialization of Fig. 7a.
//   - All other designs accept out of order, with exactly the ordering
//     crash consistency requires: writes to the same data line stay in
//     program order, and counter writes (ccwb, evictions) never bypass an
//     earlier unaccepted data write — a counter writeback must cover the
//     counters of every write the program issued before it. Plain data
//     writes may bypass stalled CA and counter writes, which is what lets
//     SCA scale with core count (Fig. 13).
func (mc *Controller) tryAccept() {
	if mc.accepting {
		// Acceptance can enqueue new writes (counter-cache eviction
		// writebacks); they land at the tail of pending and are picked
		// up by the loop already running below.
		return
	}
	mc.accepting = true
	defer func() { mc.accepting = false }()
	defer mc.probeQueues()

	fifo := mc.pol.FIFOAcceptance
	// blockedLines is bounded by acceptWindow, so a linear scan beats a
	// map allocation on this very hot path; stalls are tallied locally
	// and flushed to the stats map once per call.
	var blockedLines [acceptWindow]mem.Addr
	stalls := uint64(0)
	defer func() {
		if stalls > 0 {
			mc.st.Inc(stats.WriteQueueStalls, stalls)
		}
	}()
	for {
		progress := false
		dataUnaccepted := false // an earlier data/CA write is still pending
		ctrBlocked := false     // an earlier counter write is still pending
		nBlocked := 0

		// Detach the list: acceptance can enqueue fresh requests
		// (counter-cache eviction writebacks), which land on the
		// now-empty mc.pending and are merged behind the survivors.
		pending := mc.pending
		mc.pending = nil
		var keep []*writeReq

		for i := 0; i < len(pending); i++ {
			if len(keep) >= acceptWindow {
				// Lookahead exhausted; everything younger waits.
				keep = append(keep, pending[i:]...)
				break
			}
			req := pending[i]
			var ok bool
			switch {
			case req.isCtr:
				turn := !ctrBlocked && !dataUnaccepted
				if turn && req.ccwb && (mc.ctrC == nil || !mc.ctrC.IsDirty(req.addr)) {
					// Nothing to write after all; the request
					// completes without consuming a queue slot.
					if req.accepted != nil {
						mc.eng.Schedule(0, req.accepted)
					}
					mc.putReq(req)
					progress = true
					continue
				}
				ok = turn && (len(mc.counterQ) < mc.cfg.CounterWriteQueue ||
					mc.hasUnissuedCounter(req.addr))
				if !ok {
					ctrBlocked = true
				}
			case req.ca:
				haveData := len(mc.dataQ) < mc.cfg.DataWriteQueue
				// Outside FCA, the counter half coalesces into an
				// unissued entry for the same counter line, so a full
				// counter queue only blocks when no such entry exists.
				haveCtr := len(mc.counterQ) < mc.cfg.CounterWriteQueue ||
					(!fifo && mc.hasUnissuedCounter(mc.layout.CounterLine(req.addr)))
				ok = !dataUnaccepted && !ctrBlocked &&
					!lineBlocked(blockedLines[:nBlocked], req.addr) &&
					haveData && haveCtr
				if !ok {
					if haveData != haveCtr {
						mc.st.Inc(stats.ReadyBitWaits, 1)
					}
					dataUnaccepted = true
					nBlocked = blockLine(&blockedLines, nBlocked, req.addr)
				}
			default:
				ok = !lineBlocked(blockedLines[:nBlocked], req.addr) &&
					len(mc.dataQ) < mc.cfg.DataWriteQueue
				if !ok {
					dataUnaccepted = true
					nBlocked = blockLine(&blockedLines, nBlocked, req.addr)
				}
			}
			if ok {
				if req.isCtr {
					mc.acceptCounter(req)
				} else {
					mc.acceptData(req)
				}
				mc.putReq(req)
				progress = true
			} else {
				stalls++
				keep = append(keep, req)
				if fifo {
					// Strict FIFO: nothing younger may pass.
					keep = append(keep, pending[i+1:]...)
					break
				}
			}
		}
		mc.pending = append(keep, mc.pending...)
		if !progress || len(mc.pending) == 0 {
			return
		}
	}
}

// lineBlocked reports whether a is in the blocked-line set. A plain
// function over tryAccept's stack array, not a closure: tryAccept runs
// once per accepted write and must not allocate.
func lineBlocked(blocked []mem.Addr, a mem.Addr) bool {
	for _, b := range blocked {
		if b == a {
			return true
		}
	}
	return false
}

// blockLine adds a to the blocked-line set if there is room, returning
// the new set size.
func blockLine(set *[acceptWindow]mem.Addr, n int, a mem.Addr) int {
	if n < len(set) && !lineBlocked(set[:n], a) {
		set[n] = a
		n++
	}
	return n
}

// acceptData admits one data write: encrypt, update the counter state,
// queue the device write, and (for CA writes) pair it with the counter
// line write.
func (mc *Controller) acceptData(req *writeReq) {
	now := mc.eng.Now()
	mc.persistEpoch() // queue contents and counter-cache state change here
	mc.st.Observe("mc.accept_delay", now-req.arrival)

	var cipher mem.Line
	var cryptoDelay sim.Time
	var ctr uint64
	sum := ctrenc.Checksum(req.plain, req.addr)
	if mc.pol.Encrypted {
		ctr = mc.ctrs.Next(req.addr)
		cipher = mc.enc.Encrypt(req.plain, req.addr, ctr)
		cryptoDelay = mc.cfg.CryptoLatency
		mc.touchCounterCacheForWrite(req.addr)
		mc.stopLoss(req.addr, cryptoDelay)
		if mc.pol.MetadataWriteThrough {
			// SecPM: the combined counter+MAC line rides along with every
			// data write. Queueing it here puts metadata into the ADR
			// domain at the same accept instant as the data (crash
			// consistent by construction); back-to-back writes covered by
			// one counter line coalesce in queueCounterEntry, which is
			// the scheme's counter write coalescing.
			cl := mc.layout.CounterLine(req.addr)
			mc.queueCounterEntry(cl, cryptoDelay)
			if mc.ctrC != nil {
				mc.ctrC.Clean(cl)
			}
		}
	} else {
		cipher = req.plain
	}
	if mc.pb != nil {
		if req.ca {
			mc.pb.CAWrite(uint64(req.addr), req.arrival, now)
		}
		if cryptoDelay > 0 {
			mc.pb.Encrypt(uint64(req.addr), now, now+cryptoDelay)
		}
	}

	// A non-CA write to a line already queued but not dispatched
	// overwrites that entry instead of occupying another slot.
	if !req.ca {
		for _, old := range mc.dataQ {
			if old.addr == req.addr && !old.issued && !old.ca {
				old.data, old.tag, old.sum = cipher, ctr, sum
				if mc.pol.CoLocatesCounters {
					// The refreshed 72B access carries the new counter.
					old.syncCtr = true
				}
				mc.st.Inc(stats.CoalescedWrites, 1)
				if req.accepted != nil {
					mc.eng.Schedule(0, req.accepted)
				}
				return
			}
		}
	}

	e := mc.getEntry()
	e.addr, e.data, e.nbytes, e.tag, e.sum, e.ca = req.addr, cipher, mc.cfg.AccessBytes(), ctr, sum, req.ca
	if mc.pol.CoLocatesCounters {
		// The 72B access carries the counter with the data; reflect
		// that in the functional image at the same completion instant
		// so the pair is atomic by construction.
		e.syncCtr = true
	}
	mc.pushData(e)
	mc.makeEligible(e, cryptoDelay)

	if req.ca {
		cl := mc.layout.CounterLine(req.addr)
		if mc.pol.PairsEveryWrite {
			// FCA pairs every write with its own counter-line write —
			// the pair is indivisible, so the counter half never
			// coalesces. This is what doubles FCA's write traffic
			// (§4.1) and keeps its 16-entry counter queue under
			// pressure (Fig. 7a's serialization).
			ce := mc.getEntry()
			ce.addr, ce.data, ce.nbytes, ce.ca = cl, mc.packCounterLine(cl), 64+mc.treeExtraBytes, true
			ce.deadline = mc.eng.Now() + cryptoDelay
			mc.pushCounter(ce)
			mc.makeEligible(ce, cryptoDelay)
		} else {
			mc.queueCounterEntry(cl, cryptoDelay)
		}
		// The queued snapshot makes the cached line clean again.
		if mc.ctrC != nil {
			mc.ctrC.Clean(cl)
		}
	}
	if req.accepted != nil {
		mc.eng.Schedule(0, req.accepted)
	}
}

// acceptCounter admits one standalone counter-line write (ccwb/eviction).
// If the same counter line is already queued and not yet dispatched, the
// queued entry is refreshed in place — the write-queue coalescing that
// gives SCA its counter-traffic reduction (Fig. 14).
func (mc *Controller) acceptCounter(req *writeReq) {
	mc.persistEpoch() // queue contents and counter-cache state change here
	mc.st.Observe("mc.ctr_accept_delay", mc.eng.Now()-req.arrival)
	if req.ccwb {
		// The counter line leaves the dirty state now that a write of
		// its current contents is guaranteed.
		mc.ctrC.Clean(req.addr)
		mc.st.Inc(stats.CounterCacheWB, 1)
	}
	mc.queueCounterEntry(req.addr, 0)
	if req.accepted != nil {
		mc.eng.Schedule(0, req.accepted)
	}
}

// hasUnissuedCounter reports whether an unissued (coalescible) counter
// entry for the counter line cl is queued.
func (mc *Controller) hasUnissuedCounter(cl mem.Addr) bool {
	for _, e := range mc.counterQ {
		if e.addr == cl && !e.issued {
			return true
		}
	}
	return false
}

// queueCounterEntry coalesces a counter-line write into an unissued queued
// entry for the same line, or appends a fresh entry with a linger deadline.
func (mc *Controller) queueCounterEntry(cl mem.Addr, cryptoDelay sim.Time) {
	for _, old := range mc.counterQ {
		if old.addr == cl && !old.issued {
			old.data = mc.packCounterLine(cl)
			mc.st.Inc(stats.CoalescedCounters, 1)
			return
		}
	}
	e := mc.getEntry()
	e.addr, e.data, e.nbytes = cl, mc.packCounterLine(cl), 64+mc.treeExtraBytes
	e.deadline = mc.eng.Now() + cryptoDelay + counterLinger
	mc.pushCounter(e)
	mc.makeEligible(e, cryptoDelay)
	// The deadline event guarantees the entry eventually issues even if
	// nothing else stirs the scheduler.
	mc.eng.At(e.deadline, mc.tryIssue)
}

// makeEligible marks the entry dispatchable once the encryption pipeline
// delay has elapsed, then runs the issue scheduler.
func (mc *Controller) makeEligible(e *entry, delay sim.Time) {
	if delay == 0 {
		e.eligible = true
		mc.tryIssue()
		return
	}
	mc.eng.Schedule(delay, func() {
		e.eligible = true
		mc.tryIssue()
	})
}

// Issue-width limits: how many device writes each queue keeps in flight.
// Entries behind the window stay in the queue, ADR-protected and still
// coalescible — modeling a scheduler that drains the queue at device speed
// rather than reserving the device the instant a write is accepted.
func (mc *Controller) dataIssueWidth() int    { return min(mc.cfg.Banks, mc.cfg.DataWriteQueue) }
func (mc *Controller) counterIssueWidth() int { return max(1, mc.cfg.CounterWriteQueue/2) }

// tryIssue dispatches eligible entries in queue order up to each queue's
// issue width.
func (mc *Controller) tryIssue() {
	for _, e := range mc.dataQ {
		if mc.dataIssued >= mc.dataIssueWidth() {
			break
		}
		if e.eligible && !e.issued {
			mc.issue(e, true)
		}
	}
	// Counter writes drain lazily: only under capacity pressure or past
	// their linger deadline, maximizing coalescing windows. Pressure
	// keeps a quarter of the queue free so counter-atomic pairs can
	// always be accepted promptly.
	pressure := len(mc.counterQ) >= mc.cfg.CounterWriteQueue-mc.cfg.CounterWriteQueue/4
	now := mc.eng.Now()
	for _, e := range mc.counterQ {
		if mc.counterIssued >= mc.counterIssueWidth() {
			break
		}
		if e.eligible && !e.issued && (pressure || now >= e.deadline) {
			mc.issue(e, false)
		}
	}
}

// issue dispatches one entry's device write and retires it at completion.
func (mc *Controller) issue(e *entry, isData bool) {
	e.issued = true
	if isData {
		mc.dataIssued++
	} else {
		mc.counterIssued++
	}
	mc.dev.Write(e.addr, e.data, e.nbytes, e.tag, e.sum, func() {
		mc.persistEpoch() // the write just landed in the device image
		e.done = true
		if isData {
			mc.dataIssued--
		} else {
			mc.counterIssued--
		}
		if e.syncCtr {
			mc.syncCoLocatedCounter(e.addr, e.tag, mc.eng.Now())
		}
		mc.retire(isData)
	})
}

// retire drops completed entries back into the pool, then re-runs the
// issue scheduler and acceptance (capacity may have freed). In-place
// index compaction, not append: retire runs once per device completion
// and must not allocate.
func (mc *Controller) retire(isData bool) {
	q := mc.dataQ
	if !isData {
		q = mc.counterQ
	}
	n := 0
	for _, e := range q {
		if e.done {
			mc.putEntry(e)
		} else {
			q[n] = e
			n++
		}
	}
	for i := n; i < len(q); i++ {
		q[i] = nil
	}
	if isData {
		mc.dataQ = q[:n]
	} else {
		mc.counterQ = q[:n]
	}
	mc.tryIssue()
	mc.tryAccept()
}

// stopLoss enforces the policy's stop-loss rule (Osiris): a data line's
// counter heads to NVM after at most stopLossLimit consecutive rewrites,
// bounding recovery's candidate-counter search. The counter write is a
// normal lazy queue entry (no ordering waits) and resets the lag of every
// line its counter line covers.
func (mc *Controller) stopLoss(addr mem.Addr, cryptoDelay sim.Time) {
	if mc.stopLossLag == nil {
		return
	}
	line := addr.LineAddr()
	mc.stopLossLag[line]++
	if mc.stopLossLag[line] < mc.stopLossLimit {
		return
	}
	cl := mc.layout.CounterLine(line)
	mc.queueCounterEntry(cl, cryptoDelay)
	if mc.ctrC != nil {
		mc.ctrC.Clean(cl)
	}
	for _, da := range mc.layout.DataLinesOf(cl) {
		delete(mc.stopLossLag, da)
	}
	mc.st.Inc("mc.stoploss_counter_writes", 1)
}

// syncCoLocatedCounter updates the single 8B counter slot for a data line
// in the image's counter region at the instant the co-located 72B write
// completed, keeping the functional image decryptable.
func (mc *Controller) syncCoLocatedCounter(dataAddr mem.Addr, ctr uint64, at sim.Time) {
	w := mc.coLocatedCounter(dataAddr, ctr, at, nil)
	mc.dev.WriteAt(w.Line, w.Data, w.Tag, w.Sum, at)
}

// coLocatedCounter is the counter-region half of a co-located 72B
// write: the data line's counter line with its 8B slot set to ctr. The
// line's other slots come from the latest write to it in pending, or
// else from the image.
func (mc *Controller) coLocatedCounter(dataAddr mem.Addr, ctr uint64, at sim.Time, pending []mem.Write) mem.Write {
	cl := mc.layout.CounterLine(dataAddr)
	cur, _ := mc.dev.Image().Read(cl)
	for i := len(pending) - 1; i >= 0; i-- {
		if pending[i].Line == cl {
			cur = pending[i].Data
			break
		}
	}
	vals := ctrenc.UnpackCounterLine(cur)
	vals[mc.layout.CounterSlot(dataAddr)] = ctr
	return mem.Write{Line: cl, Data: ctrenc.PackCounterLine(vals), At: at}
}

// touchCounterCacheForWrite updates counter-cache state for a write to the
// data line addr: allocate/refresh the counter line, fetch it on a miss
// (background, non-blocking — a fresh counter is used regardless, §5.2.1),
// and write back any dirty victim.
func (mc *Controller) touchCounterCacheForWrite(addr mem.Addr) {
	if mc.ctrC == nil {
		return
	}
	cl := mc.layout.CounterLine(addr)
	res := mc.ctrC.Access(cl, true)
	mc.evictCounterVictim(res)
	if res.Hit {
		mc.st.Inc(stats.CounterCacheHits, 1)
		return
	}
	mc.st.Inc(stats.CounterCacheMiss, 1)
	if mc.pol.SeparateCounterWrites {
		// Background fill of the other seven counters in the line.
		mc.dev.Read(cl, 64, func(mem.Line, bool) {})
	}
	if mc.pol.CoLocatesCounters {
		mc.ctrC.Clean(cl) // co-located counters persist with their data
	}
}

// evictCounterVictim writes back a dirty counter line displaced from the
// counter cache. Losing it would strand stale counters in NVM for
// committed data — eviction writebacks are mandatory for correctness in
// the Ideal and SCA designs.
func (mc *Controller) evictCounterVictim(res cache.AccessResult) {
	if !res.VictimValid || !res.VictimDirty {
		return
	}
	mc.persistEpoch() // the dirty counter-cache set just shrank
	mc.st.Inc(stats.CounterCacheWB, 1)
	mc.enqueueCounterWrite(res.Victim, nil)
}

// ---------------------------------------------------------------------------
// Crash and shutdown support

// PendingWork reports outstanding controller work: writes awaiting
// acceptance or device completion.
func (mc *Controller) PendingWork() int {
	return len(mc.pending) + len(mc.dataQ) + len(mc.counterQ)
}

// Backlog reports how many writes are still waiting for acceptance. The
// replay engine uses it as writeback-buffer backpressure: a core stalls
// when the controller is drowning, as real cache hierarchies do when
// their writeback buffers fill.
func (mc *Controller) Backlog() int { return len(mc.pending) }

// QueueOccupancy returns the current data/counter queue depths.
func (mc *Controller) QueueOccupancy() (data, counter int) {
	return len(mc.dataQ), len(mc.counterQ)
}

// ADROverlay returns the writes the paper's extended ADR support lands in
// NVM at a power failure at instant at, in drain order, and changes no
// state. Every entry resident in the (battery-backed) write queues
// drains: the data queue first, then the counter queue. A co-located
// data entry carries its counter in the same 72B access, so it also
// yields its counter line with the entry's slot updated. Entries
// awaiting acceptance are volatile and are lost; because CA pairs are
// accepted atomically, no half-pair can be resident.
//
// The crash image at at is Image().SnapshotWritesAt(at) with these
// writes laid over it in order, a later write to a line replacing an
// earlier one. The machine is untouched, so a replay can resume past
// at and observe the next crash instant.
func (mc *Controller) ADROverlay(at sim.Time) []mem.Write {
	var out []mem.Write
	for _, e := range mc.dataQ {
		if e.done {
			continue
		}
		out = append(out, mem.Write{Line: e.addr.LineAddr(), Data: e.data, At: at, Tag: e.tag, Sum: e.sum})
		if e.syncCtr {
			out = append(out, mc.coLocatedCounter(e.addr, e.tag, at, out))
		}
	}
	for _, e := range mc.counterQ {
		if !e.done {
			out = append(out, mem.Write{Line: e.addr.LineAddr(), Data: e.data, At: at})
		}
	}
	return out
}

// DrainADR applies ADROverlay(at) to the device image. It is terminal:
// the image then holds writes the running machine never made, so a
// drained machine must not replay further.
func (mc *Controller) DrainADR(at sim.Time) {
	for _, w := range mc.ADROverlay(at) {
		mc.dev.WriteAt(w.Line, w.Data, w.Tag, w.Sum, at)
	}
}

// DirtyCounterLines returns the counter-cache lines whose latest values
// exist only on-chip. On a crash these are lost — the root cause of the
// paper's inconsistency (Fig. 3/4) in designs without counter-atomicity.
func (mc *Controller) DirtyCounterLines() []mem.Addr {
	if mc.ctrC == nil {
		return nil
	}
	return mc.ctrC.DirtyLines()
}

// FlushCounters writes back every dirty counter line (graceful shutdown),
// making the NVM image fully self-consistent. accepted fires once all
// flushes are accepted.
func (mc *Controller) FlushCounters(accepted func()) {
	if mc.ctrC == nil {
		mc.eng.Schedule(0, accepted)
		return
	}
	lines := mc.ctrC.CleanAll()
	remaining := len(lines)
	if remaining == 0 {
		mc.eng.Schedule(0, accepted)
		return
	}
	for _, cl := range lines {
		mc.enqueueCounterWrite(cl, func() {
			remaining--
			if remaining == 0 {
				accepted()
			}
		})
	}
}
