package exp

import "io"

// Fig14Result holds NVM write traffic normalized to the no-encryption
// design (lower is better).
type Fig14Result struct {
	Workloads []string
	// Normalized[workload][engine] = bytes written / bytes("noenc").
	Normalized map[string]map[string]float64
	Average    map[string]float64
}

// Fig14 regenerates Figure 14 in a one-shot session; see Session.Fig14.
func Fig14(sc Scale, out io.Writer) (Fig14Result, error) { return NewSession(sc).Fig14(out) }

// Fig14 regenerates Figure 14: write traffic to NVMM normalized to the
// no-encryption design for SCA, FCA and the two co-located designs —
// Fig. 12's runs measured in bytes written instead of runtime. It
// returns the first write error.
func (s *Session) Fig14(w io.Writer) (Fig14Result, error) {
	res, err := s.fig12Table(w, "fig14", "Figure 14: NVM write traffic normalized to NoEncryption (lower is better)", bytesOf)
	return Fig14Result(res), err
}
