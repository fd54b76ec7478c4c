// The spec registry: the named machine table behind the config.Design
// enum. The seven paper designs are registered at init under the CLI
// names the repo has always used (noenc, ideal, colocated, colocatedcc,
// fca, sca, osiris); new machines — custom sizing, the DRAM backend, or
// entirely new engines — are Registered as data, and every front end
// (nvmsim, crashtest, core.Options) looks machines up here.

package machine

import (
	"fmt"
	"sort"
	"sync"

	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
)

var (
	regMu    sync.RWMutex
	registry = map[string]*Spec{}
)

// Register adds a named spec to the registry. The spec is validated and
// stored by value; the name must be new.
func Register(name string, s *Spec) error {
	if name == "" {
		return fmt.Errorf("machine: Register with empty name")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	cp := *s
	if cp.Name == "" {
		cp.Name = name
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("machine: spec %q already registered", name)
	}
	registry[name] = &cp
	return nil
}

// ByName returns a copy of the registered spec with the given name.
func ByName(name string) (*Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (valid: %v)", name, namesLocked())
	}
	cp := *s
	return &cp, nil
}

// Names lists the registered machine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpecForDesign returns the built-in spec implementing the given design
// enum value — the enum is presentation sugar over this table.
func SpecForDesign(d config.Design) (*Spec, error) {
	meta, err := engines.ForDesign(d)
	if err != nil {
		return nil, err
	}
	return ByName(meta.Name)
}

func init() {
	for _, n := range engines.Names() {
		if err := Register(n, &Spec{Name: n, Engine: n}); err != nil {
			panic(err)
		}
	}
}
