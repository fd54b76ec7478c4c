// Package machine is the component architecture of the simulator: two
// pluggable components — the design policy (an engines.Policy value:
// counter placement, atomicity protocol, recovery) and the Backend
// interface (the timed device) — plus a builder that assembles a full
// machine (simulation engine, device, memory controller, shared L2) from
// a declarative, JSON-serializable Spec. The config.Design enum the
// figures are written in terms of is sugar over the registered spec
// table (Register/ByName).
//
// The components live where their consumers sit: the policy in the leaf
// subpackage machine/engines (so internal/memctrl can depend on it
// without a cycle) and Backend in internal/nvm; this package re-exports
// Backend as the architecture's public seam.
package machine

import (
	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
	"encnvm/internal/memctrl"
	"encnvm/internal/nvm"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// Backend is the timed-device component: a memory technology's array
// timing behind the shared bank/bus structure.
type Backend = nvm.Backend

// RecoveryCost quantifies a metadata engine's post-crash recovery work.
type RecoveryCost = engines.RecoveryCost

// Machine is one assembled simulated machine, ready for a replay to
// attach cores and run.
type Machine struct {
	Spec *Spec          // fully-resolved description (manifest embedding)
	Cfg  *config.Config // the exact configuration the components share

	Meta engines.Policy // design policy
	Back Backend

	Eng *sim.Engine
	St  *stats.Stats
	Dev *nvm.Device
	MC  *memctrl.Controller
	L2  *cache.Cache
}

// Build assembles a machine from a spec: resolve the component names,
// derive the configuration, and wire engine → device → controller. Every
// machine gets its own freshly derived Config.
func Build(s *Spec) (*Machine, error) {
	r, err := s.Resolved()
	if err != nil {
		return nil, err
	}
	cfg, err := r.Config()
	if err != nil {
		return nil, err
	}
	meta, _ := engines.ByName(r.Engine)
	back, _ := nvm.BackendByName(r.Backend)
	eng := sim.New()
	st := stats.New()
	dev := nvm.NewWithBackend(eng, cfg, back, st)
	return &Machine{
		Spec: r,
		Cfg:  cfg,
		Meta: meta,
		Back: back,
		Eng:  eng,
		St:   st,
		Dev:  dev,
		MC:   memctrl.New(eng, cfg, meta, dev, st),
		L2:   cache.New(cfg.L2),
	}, nil
}
