package memctrl

import (
	"encnvm/internal/mem"
	"encnvm/internal/stats"
)

// referenceTryAccept is the acceptance loop as it was before the saved-
// pass rewrite, kept verbatim as the oracle the differential test
// drives the controller with: every call rescans up to acceptWindow
// blocked requests per pass, finds blocked lines by linear search, and
// rebuilds the accept FIFO from a fresh slice on every pass. Installed
// with mc.refAccept = mc.referenceTryAccept.
func (mc *Controller) referenceTryAccept() {
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
