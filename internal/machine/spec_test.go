package machine_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/machine/engines"
	"encnvm/internal/nvm"
	"encnvm/internal/sim"
	"encnvm/internal/workloads"
)

// The built-in registry entries are pure sugar over the Design enum: each
// must resolve to exactly the Table-2 default configuration for its
// design, or the refactor changed machine behavior.
func TestBuiltinSpecsResolveToDefaults(t *testing.T) {
	for _, name := range machine.Names() {
		spec, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := engines.ByName(spec.Engine)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := config.Default(meta.Design).WithCores(1)
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s: resolved config differs from config.Default(%v)", name, meta.Design)
		}
	}
}

func TestSpecForDesignCoversEnum(t *testing.T) {
	for _, d := range config.AllDesigns {
		spec, err := machine.SpecForDesign(d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if cfg.Design != d {
			t.Errorf("SpecForDesign(%v) resolves to design %v", d, cfg.Design)
		}
	}
}

// dump → load → dump must be byte-identical, for resolved and sparse
// specs alike.
func TestSpecEncodeDecodeRoundTrip(t *testing.T) {
	sparse := &machine.Spec{Engine: "osiris", Backend: "dram", StopLoss: 9}
	resolved, err := sparse.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*machine.Spec{sparse, resolved} {
		var first bytes.Buffer
		if err := s.Encode(&first); err != nil {
			t.Fatal(err)
		}
		back, err := machine.DecodeSpecBytes(first.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := back.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", first.String(), second.String())
		}
	}
	// Resolving a resolved spec is the identity.
	again, err := resolved.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, resolved) {
		t.Error("Resolved is not idempotent")
	}
}

// A run driven by a spec that went through dump-spec → load must be
// byte-identical (same simulated times, same NVM traffic) to a run driven
// by the original registry entry.
func TestSpecRoundTripRunIdentical(t *testing.T) {
	p := workloads.Params{Seed: 11, Items: 32, Ops: 16, OpsPerTx: 2}
	spec, err := machine.ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.RunWorkload(core.Options{Spec: spec, Workload: "queue", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := resolved.Encode(&dump); err != nil {
		t.Fatal(err)
	}
	loaded, err := machine.DecodeSpecBytes(dump.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	viaFile, err := core.RunWorkload(core.Options{Spec: loaded, Workload: "queue", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Runtime != viaFile.Runtime ||
		direct.TotalRuntime != viaFile.TotalRuntime ||
		direct.BytesWritten != viaFile.BytesWritten ||
		direct.Transactions != viaFile.Transactions {
		t.Errorf("round-tripped spec changed the run: %+v vs %+v", direct, viaFile)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		s    machine.Spec
		want string
	}{
		{"no engine", machine.Spec{}, "no engine"},
		{"unknown engine", machine.Spec{Engine: "tweedledum"}, "tweedledum"},
		{"unknown backend", machine.Spec{Engine: "sca", Backend: "tape"}, "tape"},
		{"negative cores", machine.Spec{Engine: "sca", Cores: -1}, "cores"},
		{"negative l1", machine.Spec{Engine: "sca", L1Bytes: -64}, "l1_bytes"},
		{"negative stop-loss", machine.Spec{Engine: "osiris", StopLoss: -2}, "stop_loss"},
		{"negative latency scale", machine.Spec{Engine: "sca", ReadLatencyX: -0.5}, "latency scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// An invalid spec must not resolve or produce a config either.
	bad := &machine.Spec{Engine: "nope"}
	if _, err := bad.Resolved(); err == nil {
		t.Error("Resolved accepted an invalid spec")
	}
	if _, err := bad.Config(); err == nil {
		t.Error("Config accepted an invalid spec")
	}
}

func TestDecodeSpecRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"typoed knob", `{"engine": "sca", "l1_byte": 4096}`},
		{"trailing data", `{"engine": "sca"} {"engine": "fca"}`},
		{"not json", `engine: sca`},
		{"wrong type", `{"engine": "sca", "cores": "two"}`},
		{"unknown engine", `{"engine": "rot13"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := machine.DecodeSpecBytes([]byte(c.doc)); err == nil {
				t.Fatalf("malformed document accepted: %s", c.doc)
			}
		})
	}
}

func TestRegistrySemantics(t *testing.T) {
	if err := machine.Register("", &machine.Spec{Engine: "sca"}); err == nil {
		t.Error("empty name registered")
	}
	if err := machine.Register("sca", &machine.Spec{Engine: "sca"}); err == nil {
		t.Error("duplicate name registered")
	}
	if err := machine.Register("bad-machine", &machine.Spec{Engine: "nope"}); err == nil {
		t.Error("invalid spec registered")
	}
	// ByName hands out copies: mutating the result must not poison the
	// registry.
	s, err := machine.ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	s.Cores = 1024
	s2, err := machine.ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cores == 1024 {
		t.Error("ByName returned a shared pointer into the registry")
	}
	if _, err := machine.ByName("tweedledee"); err == nil {
		t.Error("unknown name resolved")
	}
}

// A custom spec with the DRAM backend must build a machine whose device
// timing differs from the PCM default but which still runs end to end.
func TestBuildDRAMBackend(t *testing.T) {
	spec, err := machine.DecodeSpecBytes([]byte(`{"engine": "sca", "backend": "dram"}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Back.Name(); got != "dram" {
		t.Fatalf("backend = %q", got)
	}
	pcmT := m.Cfg.EffectiveTiming()
	dramT := m.Back.Timing(m.Cfg)
	if reflect.DeepEqual(pcmT, dramT) {
		t.Fatal("DRAM backend produced PCM timings")
	}
	res, err := core.RunWorkload(core.Options{Spec: spec, Workload: "arrayswap",
		Params: workloads.Params{Seed: 3, Items: 16, Ops: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyResult(res); err != nil {
		t.Fatalf("DRAM machine failed end-to-end verification: %v", err)
	}
	// The backend swap must be observable at the memory controller: an
	// uncached read completes faster on the DRAM array than on PCM.
	readLatency := func(doc string) sim.Time {
		m, err := machine.Build(mustDecode(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		m.Eng.Schedule(0, func() {
			m.MC.Read(0, func() { done = m.Eng.Now() })
		})
		m.Eng.Run()
		return done
	}
	dramRead := readLatency(`{"engine": "sca", "backend": "dram"}`)
	pcmRead := readLatency(`{"engine": "sca"}`)
	if dramRead >= pcmRead {
		t.Errorf("DRAM read (%v) not faster than PCM read (%v)", dramRead, pcmRead)
	}
	if nvm.PCM.Name() != "pcm" {
		t.Errorf("PCM backend name = %q", nvm.PCM.Name())
	}
}

func mustDecode(t *testing.T, doc string) *machine.Spec {
	t.Helper()
	s, err := machine.DecodeSpecBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
