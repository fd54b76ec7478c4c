package config_test

import (
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/machine"
)

// A spec's counter-cache size reaches only the configuration it
// resolves to: the Table-2 default and the spec itself are untouched.
func TestWithCounterCacheSizeIsolated(t *testing.T) {
	spec := &machine.Spec{Engine: "sca", CounterCacheBytes: 128 << 10}
	small, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if small.CounterCache.SizeBytes != 128<<10 {
		t.Fatalf("size = %d", small.CounterCache.SizeBytes)
	}
	if config.Default(config.SCA).CounterCache.SizeBytes != 1<<20 {
		t.Fatal("default config mutated")
	}
	if *spec != (machine.Spec{Engine: "sca", CounterCacheBytes: 128 << 10}) {
		t.Fatalf("spec mutated: %+v", *spec)
	}
}
