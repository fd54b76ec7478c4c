package exp

import (
	"fmt"
	"io"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// OsirisResult summarizes the extension study: the Osiris-style design's
// performance relative to SCA and Ideal, and its crash consistency with
// legacy software.
type OsirisResult struct {
	Workloads []string
	// VsSCA[w] = runtime(Osiris)/runtime(SCA); < 1 means Osiris faster.
	VsSCA map[string]float64
	// VsIdeal[w] = runtime(Osiris)/runtime(Ideal).
	VsIdeal map[string]float64
	// LegacyFailures across all workloads' crash sweeps (must be 0).
	LegacyFailures int
	LegacyPoints   int
	// RecoveryTrialsPerLine is the average candidate decryptions per NVM
	// line during recovery — the recovery-time cost the Anubis follow-on
	// targets (1.0 = counters were always current).
	RecoveryTrialsPerLine float64
}

// Osiris runs the extension study in a one-shot session; see
// Session.Osiris.
func Osiris(sc Scale, out io.Writer) (OsirisResult, error) { return NewSession(sc).Osiris(out) }

// Osiris regenerates the extension study: the follow-on direction this
// paper spawned replaces software counter-atomicity with ECC-assisted
// counter recovery bounded by a stop-loss write rule. The study answers
// two questions: does it really free legacy software from the §2.2
// failure, and what does it cost relative to SCA? It returns the first
// write error.
func (s *Session) Osiris(w io.Writer) (OsirisResult, error) {
	sc := s.sc
	res := OsirisResult{
		VsSCA:   make(map[string]float64),
		VsIdeal: make(map[string]float64),
	}
	rs, err := s.perWorkload("osiris", []string{"sca", "ideal", "osiris"})
	if err != nil {
		return res, err
	}

	out := &errWriter{w: w}
	header(out, "Extension: Osiris-style ECC counter recovery (stop-loss window = 4)")
	fmt.Fprintf(out, "%-12s %16s %16s\n", "workload", "vs SCA", "vs Ideal")
	for wi, wl := range workloads.All() {
		sca, ideal, osi := rs[wi*3], rs[wi*3+1], rs[wi*3+2]
		vsSCA := float64(osi.runtime) / float64(sca.runtime)
		vsIdeal := float64(osi.runtime) / float64(ideal.runtime)
		res.Workloads = append(res.Workloads, wl.Name())
		res.VsSCA[wl.Name()] = vsSCA
		res.VsIdeal[wl.Name()] = vsIdeal
		fmt.Fprintf(out, "%-12s %15.3fx %15.3fx\n", wl.Name(), vsSCA, vsIdeal)
	}

	// Crash consistency with legacy (pre-paper) software. The per-point
	// injections inside each sweep fan out; the report order is fixed.
	p := sc.Params
	p.Items = min(p.Items, 128)
	p.Ops = min(p.Ops, 32)
	p.Legacy = true
	var trials, lines int
	for _, wl := range workloads.All() {
		rep, err := crash.Sweep(&machine.Spec{Engine: "osiris"}, wl, p, sc.CrashPoints, sc.Jobs, nil)
		if err != nil {
			return res, err
		}
		res.LegacyFailures += len(rep.Failures())
		res.LegacyPoints += len(rep.Results)
		for _, r := range rep.Results {
			trials += r.Osiris.Trials
			lines += r.Osiris.Lines
		}
	}
	if lines > 0 {
		res.RecoveryTrialsPerLine = float64(trials) / float64(lines)
	}
	fmt.Fprintf(out, "legacy software crash sweeps: %d/%d points inconsistent (0 expected)\n",
		res.LegacyFailures, res.LegacyPoints)
	fmt.Fprintf(out, "recovery cost: %.2f candidate decryptions per line (Anubis's target metric)\n",
		res.RecoveryTrialsPerLine)
	return res, out.err
}
