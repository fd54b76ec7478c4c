package exp

import (
	"fmt"
	"io"

	"encnvm/internal/workloads"
)

// LifetimeResult holds the §6.3.3 endurance analysis: NVM lifetime under
// uniform wear leveling is inversely proportional to bytes written, so
// SCA's traffic reduction translates directly into lifetime gain.
type LifetimeResult struct {
	Workloads []string
	// GainOverFCA[w] = bytes(FCA)/bytes(SCA) - 1, the fractional
	// lifetime improvement of SCA over full counter-atomicity.
	GainOverFCA map[string]float64
	// GainOverCoLocated[w] likewise versus the co-located design.
	GainOverCoLocated map[string]float64
	// HotspotFactor[w] = hottest-line writes / average-line writes under
	// SCA — how much a system *without* wear leveling concentrates wear.
	HotspotFactor map[string]float64
	AvgGainFCA    float64
	AvgGainCoLoc  float64
}

// Lifetime runs the lifetime analysis in a one-shot session; see
// Session.Lifetime.
func Lifetime(sc Scale, out io.Writer) (LifetimeResult, error) { return NewSession(sc).Lifetime(out) }

// Lifetime regenerates the paper's §6.3.3 lifetime analysis from Fig.
// 12's SCA, FCA and Co-located runs. The paper reports SCA improving NVM
// lifetime by ~6.6% under uniform wear leveling; the number here is this
// simulator's measured traffic ratio. It returns the first write error.
func (s *Session) Lifetime(w io.Writer) (LifetimeResult, error) {
	res := LifetimeResult{
		GainOverFCA:       make(map[string]float64),
		GainOverCoLocated: make(map[string]float64),
		HotspotFactor:     make(map[string]float64),
	}
	rs, err := s.perWorkload("lifetime", []string{"sca", "fca", "colocated"})
	if err != nil {
		return res, err
	}

	out := &errWriter{w: w}
	header(out, "§6.3.3: NVM lifetime under uniform wear leveling (gain of SCA)")
	fmt.Fprintf(out, "%-12s %14s %18s %16s\n", "workload", "vs FCA", "vs Co-located", "hotspot factor")
	var gainsF, gainsC []float64
	for wi, wl := range workloads.All() {
		sca, fca, colo := rs[wi*3], rs[wi*3+1], rs[wi*3+2]
		gf := float64(fca.bytesWritten)/float64(sca.bytesWritten) - 1
		gc := float64(colo.bytesWritten)/float64(sca.bytesWritten) - 1
		hs := 0.0
		if sca.wearLines > 0 && sca.wearTotal > 0 {
			hs = float64(sca.wearHottest) / (float64(sca.wearTotal) / float64(sca.wearLines))
		}
		res.Workloads = append(res.Workloads, wl.Name())
		res.GainOverFCA[wl.Name()] = gf
		res.GainOverCoLocated[wl.Name()] = gc
		res.HotspotFactor[wl.Name()] = hs
		gainsF = append(gainsF, 1+gf)
		gainsC = append(gainsC, 1+gc)
		fmt.Fprintf(out, "%-12s %13.1f%% %17.1f%% %15.1fx\n", wl.Name(), gf*100, gc*100, hs)
	}
	res.AvgGainFCA = geomean(gainsF) - 1
	res.AvgGainCoLoc = geomean(gainsC) - 1
	fmt.Fprintf(out, "%-12s %13.1f%% %17.1f%%   (paper: 8.1%% / 6.6%% traffic reduction)\n",
		"average", res.AvgGainFCA*100, res.AvgGainCoLoc*100)
	return res, out.err
}
