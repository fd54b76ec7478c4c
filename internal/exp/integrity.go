package exp

import "io"

// IntegrityResult holds the crash-consistency overhead of persisted
// integrity metadata: single-core runtime and NVM write traffic of the
// tree-protected designs normalized to SCA (counters only), per
// workload plus geomean average.
type IntegrityResult struct {
	Workloads []string
	// Runtime[workload][engine] = runtime / runtime("sca").
	Runtime map[string]map[string]float64
	// Traffic[workload][engine] = bytes written / bytes written("sca").
	Traffic    map[string]map[string]float64
	AvgRuntime map[string]float64
	AvgTraffic map[string]float64
}

// integrityEngines are the tree-protected engines compared against the
// SCA baseline: BMT drags the ancestor tree path along with every
// counter write, SecPM writes combined counter+MAC metadata through
// with every data write.
var integrityEngines = []string{"bmt", "secpm"}

// Integrity runs the integrity study in a one-shot session; see
// Session.Integrity.
func Integrity(sc Scale, out io.Writer) (IntegrityResult, error) {
	return NewSession(sc).Integrity(out)
}

// Integrity compares crash-consistency overhead with and without a
// persisted integrity tree: the same workloads and annotations as the
// paper's figures, run under SCA (counters only), BMT, and SecPM, with
// runtime and write traffic normalized to SCA. It returns the first
// write error.
func (s *Session) Integrity(w io.Writer) (IntegrityResult, error) {
	res := IntegrityResult{
		Runtime:    make(map[string]map[string]float64),
		Traffic:    make(map[string]map[string]float64),
		AvgRuntime: make(map[string]float64),
		AvgTraffic: make(map[string]float64),
	}
	var cols []normColumn
	for _, e := range integrityEngines {
		cols = append(cols, normColumn{label(e) + " time", e, runtimeOf, res.Runtime, res.AvgRuntime})
	}
	for _, e := range integrityEngines {
		cols = append(cols, normColumn{label(e) + " bytes", e, bytesOf, res.Traffic, res.AvgTraffic})
	}
	out := &errWriter{w: w}
	var err error
	res.Workloads, err = s.normTable(out, "integrity",
		"Integrity: runtime and write traffic with integrity trees, normalized to SCA (lower is better)", "sca", 14, cols)
	if err != nil {
		return res, err
	}
	return res, out.err
}
