package exp

import (
	"fmt"
	"io"

	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/sim"
	"encnvm/internal/workloads"
)

// Table2 prints the simulated system configuration (the paper's Table 2)
// plus the §6.3.7 hardware overhead summary. It returns the first write
// error, so a closed pipe or full disk surfaces as a non-zero exit
// instead of silently truncated output.
func Table2(w io.Writer) error {
	out := &errWriter{w: w}
	c := config.Default(config.SCA)
	header(out, "Table 2: system configuration")
	fmt.Fprintf(out, "Processor         out-of-order cores, %.1fGHz (replayed trace model)\n", c.CPUFreq/1e9)
	fmt.Fprintf(out, "L1 D cache        %dKB per core (private), %d-way\n", c.L1.SizeBytes>>10, c.L1.Ways)
	fmt.Fprintf(out, "L2 cache          %dMB per core (shared), %d-way\n", c.L2.SizeBytes>>20, c.L2.Ways)
	fmt.Fprintf(out, "Counter cache     %dMB per core (shared), %d-way\n", c.CounterCache.SizeBytes>>20, c.CounterCache.Ways)
	fmt.Fprintf(out, "Memory controller data read/write queue: %d/%d entries\n", c.ReadQueueEntries, c.DataWriteQueue)
	fmt.Fprintf(out, "                  counter write queue: %d entries\n", c.CounterWriteQueue)
	fmt.Fprintf(out, "Memory            %dGB PCM, %.0fMHz, %d banks\n", c.MemoryBytes>>30, c.MemFreq/1e6, c.Banks)
	t := c.Timing
	fmt.Fprintf(out, "                  tRCD/tCL/tCWD/tCAW/tWTR/tWR = %.0f/%.0f/%.0f/%.0f/%.1f/%.0f ns\n",
		t.TRCD.Nanoseconds(), t.TCL.Nanoseconds(), t.TCWD.Nanoseconds(),
		t.TCAW.Nanoseconds(), t.TWTR.Nanoseconds(), t.TWR.Nanoseconds())
	fmt.Fprintf(out, "En/decryption     %.0fns latency\n", c.CryptoLatency.Nanoseconds())
	fmt.Fprintf(out, "\n§6.3.7 overhead: the only addition over prior encrypted-NVM hardware is\n")
	fmt.Fprintf(out, "the %d-entry (%dKB) counter write queue at the memory controller.\n",
		c.CounterWriteQueue, c.CounterWriteQueue*64>>10)
	return out.err
}

// Fig4Result summarizes the motivating crash-failure demonstration.
type Fig4Result struct {
	// LegacyFailures counts inconsistent crash points when legacy
	// (pre-paper) software runs on encrypted NVMM.
	LegacyFailures int
	LegacyPoints   int
	// SCAFailures must be zero: the same workloads with the paper's
	// primitives on SCA hardware.
	SCAFailures int
	SCAPoints   int
}

// Fig4 reproduces the §2.2/Fig. 3-4 motivating failure: legacy
// crash-consistent software on an encrypted NVMM loses data/counter sync
// at power failure, while the same workloads with the paper's primitives
// under SCA recover at every crash point. Its crash sweeps share no
// cells with other figures, so it runs outside any session. It returns
// the first write error.
func Fig4(sc Scale, w io.Writer) (Fig4Result, error) {
	var res Fig4Result
	out := &errWriter{w: w}
	header(out, "Figure 3/4: crash-recovery consistency (crash-point sweeps)")
	p := sc.Params
	p.Items = min(p.Items, 128) // crash sweeps replay once per point
	p.Ops = min(p.Ops, 32)

	legacy := p
	legacy.Legacy = true
	for _, wl := range workloads.All() {
		rep, err := crash.Sweep(&machine.Spec{Engine: "ideal"}, wl, legacy, sc.CrashPoints, sc.Jobs, nil)
		if err != nil {
			return res, err
		}
		res.LegacyFailures += len(rep.Failures())
		res.LegacyPoints += len(rep.Results)
		fmt.Fprintf(out, "legacy software on encrypted NVMM  %-10s %3d/%3d crash points inconsistent\n",
			wl.Name(), len(rep.Failures()), len(rep.Results))
	}
	for _, wl := range workloads.All() {
		rep, err := crash.Sweep(&machine.Spec{Engine: "sca"}, wl, p, sc.CrashPoints, sc.Jobs, nil)
		if err != nil {
			return res, err
		}
		res.SCAFailures += len(rep.Failures())
		res.SCAPoints += len(rep.Results)
		fmt.Fprintf(out, "SCA primitives + SCA hardware      %-10s %3d/%3d crash points inconsistent\n",
			wl.Name(), len(rep.Failures()), len(rep.Results))
	}
	return res, out.err
}

// Fig8Result captures the transaction-stage write timelines under FCA and
// SCA (the paper's Figs. 7 and 8): the acceptance completion time of a
// dependent burst of writes per stage.
type Fig8Result struct {
	// Completion time of an 8-write prepare/mutate-style burst followed
	// by one commit write, per design.
	FCA sim.Time
	SCA sim.Time
}

// Fig8 demonstrates the stage serialization of Figs. 7/8 directly at the
// memory controller: a burst of eight dependent stage writes plus one
// commit write. Under FCA every write pairs with a counter write through
// the 16-entry counter queue in FIFO order; under SCA only the commit
// write does, so the stage writes coalesce counters and complete sooner.
// It returns the first write error.
func Fig8(w io.Writer) (Fig8Result, error) {
	var res Fig8Result
	run := func(engine string) (sim.Time, error) {
		// A 4-entry counter queue makes the pairing pressure visible.
		m, err := machine.Build(&machine.Spec{Engine: engine, CounterWriteQueue: 4})
		if err != nil {
			return 0, err
		}
		eng, mc := m.Eng, m.MC
		var doneAt sim.Time
		eng.Schedule(0, func() {
			var line mem.Line
			// Stage writes: eight lines spread over distinct counter
			// lines, as a log prepare would touch.
			for i := 0; i < 8; i++ {
				mc.Write(mem.Addr(i*8*64), line, false, nil)
			}
			mc.CounterWriteback(0, func() {})
			// Commit: the counter-atomic write.
			mc.Write(0x100000, line, true, func() { doneAt = eng.Now() })
		})
		eng.Run()
		return doneAt, nil
	}
	var err error
	if res.FCA, err = run("fca"); err != nil {
		return res, err
	}
	if res.SCA, err = run("sca"); err != nil {
		return res, err
	}
	out := &errWriter{w: w}
	header(out, "Figure 7/8: stage-write timeline, 8 stage writes + 1 commit write")
	fmt.Fprintf(out, "FCA: commit write persistence-guaranteed at %8.1f ns (every write counter-paired, FIFO)\n", res.FCA.Nanoseconds())
	fmt.Fprintf(out, "SCA: commit write persistence-guaranteed at %8.1f ns (stage counters coalesced)\n", res.SCA.Nanoseconds())
	return res, out.err
}

// Table1 prints the per-stage consistency analysis of an undo-logging
// transaction (the paper's Table 1); the claims are enforced by tests in
// internal/persist and internal/crash. Returns the first write error.
func Table1(w io.Writer) error {
	out := &errWriter{w: w}
	header(out, "Table 1: consistency states across undo-logging transaction stages")
	fmt.Fprintln(out, "stage    backup copy     in-place data   counter-atomicity needed")
	fmt.Fprintln(out, "prepare  inconsistent    consistent      no  (writes buffered until ccwb)")
	fmt.Fprintln(out, "mutate   consistent      inconsistent    no  (writes buffered until ccwb)")
	fmt.Fprintln(out, "commit   unknown         unknown         YES (valid-flag write flips the recoverable version)")
	return out.err
}
