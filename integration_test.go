// Integration tests exercising the full stack across module boundaries:
// workload → persist runtime → trace → replay → encrypted controller →
// PCM image → crash → decryption → recovery → validation.
package encnvm_test

import (
	"testing"
	"testing/quick"

	"encnvm/internal/config"
	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

var itParams = workloads.Params{Seed: 99, Items: 48, Ops: 24, OpsPerTx: 1, ComputeCycles: 100}

// TestEveryDesignEveryWorkloadEndToEnd runs the full design/workload
// matrix (the paper's six designs plus Osiris, across the five §6.2
// workloads), verifying the final encrypted NVM image decrypts and
// validates.
func TestEveryDesignEveryWorkloadEndToEnd(t *testing.T) {
	for _, d := range config.AllDesigns {
		for _, w := range workloads.All() {
			d, w := d, w
			t.Run(d.String()+"/"+w.Name(), func(t *testing.T) {
				t.Parallel()
				spec, err := machine.SpecForDesign(d)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.RunWorkload(core.Options{
					Spec: spec, Workload: w.Name(), Params: itParams,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Transactions != itParams.Ops {
					t.Fatalf("transactions = %d, want %d", res.Transactions, itParams.Ops)
				}
				if err := core.VerifyResult(res); err != nil {
					t.Fatalf("end-to-end verification: %v", err)
				}
			})
		}
	}
}

// TestDeterminismAcrossRuns re-runs an identical configuration and demands
// bit-identical runtime and traffic — the determinism every controlled
// comparison in the experiments depends on.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() core.Result {
		res, err := core.RunWorkload(core.Options{
			Spec: &machine.Spec{Engine: "sca", Cores: 2}, Workload: "rbtree", Params: itParams,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime {
		t.Errorf("runtimes differ: %d vs %d", a.Runtime, b.Runtime)
	}
	if a.BytesWritten != b.BytesWritten {
		t.Errorf("traffic differs: %d vs %d", a.BytesWritten, b.BytesWritten)
	}
	if a.Transactions != b.Transactions {
		t.Errorf("transactions differ")
	}
}

// TestCrashMatrixConsistentDesigns sweeps crash points for every
// crash-consistent design across every workload — the repository's
// strongest end-to-end property.
func TestCrashMatrixConsistentDesigns(t *testing.T) {
	designs := []config.Design{config.NoEncryption, config.CoLocated,
		config.CoLocatedCC, config.FCA, config.SCA, config.Osiris}
	for _, d := range designs {
		for _, w := range workloads.Extended() {
			d, w := d, w
			t.Run(d.String()+"/"+w.Name(), func(t *testing.T) {
				t.Parallel()
				spec, err := machine.SpecForDesign(d)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := crash.Sweep(spec, w, itParams, 6, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range rep.Failures() {
					t.Errorf("crash at %v: %v", f.CrashAt, f.Err)
				}
			})
		}
	}
}

// TestPropertyCrashConsistencySCARandomSeeds fuzzes the workload seed and
// crash instant under SCA: no seed, workload, or crash point may produce
// an inconsistent recovery.
func TestPropertyCrashConsistencySCARandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("property fuzz is multi-second")
	}
	spec := &machine.Spec{Engine: "sca"}
	f := func(seed int64, pick uint8) bool {
		w := workloads.All()[int(pick)%5]
		p := itParams
		p.Seed = seed
		p.Items, p.Ops = 32, 12
		rep, err := crash.Sweep(spec, w, p, 4, 0, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		if n := len(rep.Failures()); n != 0 {
			t.Logf("seed %d workload %s: %d failures: %v", seed, w.Name(), n, rep.Failures()[0].Err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestOpsPerTxMatrix checks the transaction-batching dimension end to end
// (Fig. 16's knob) under SCA with crash injection at the largest size.
func TestOpsPerTxMatrix(t *testing.T) {
	for _, per := range []int{1, 4, 16} {
		p := itParams
		p.OpsPerTx = per
		p.Ops = per * 6
		for _, w := range workloads.All() {
			rep, err := crash.Sweep(&machine.Spec{Engine: "sca"}, w, p, 4, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(rep.Failures()); n != 0 {
				t.Errorf("%s OpsPerTx=%d: %d inconsistent crash points: %v",
					w.Name(), per, n, rep.Failures()[0].Err)
			}
		}
	}
}

// TestLatencyScalingMatrix runs SCA under extreme NVM latency scaling and
// still demands end-to-end validity (Fig. 17's knob).
func TestLatencyScalingMatrix(t *testing.T) {
	for _, scale := range [][2]float64{{10, 10}, {0.25, 0.25}, {10, 0.25}} {
		res, err := core.RunWorkload(core.Options{
			Spec:     &machine.Spec{Engine: "sca", ReadLatencyX: scale[0], WriteLatencyX: scale[1]},
			Workload: "queue", Params: itParams,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyResult(res); err != nil {
			t.Errorf("scale %v: %v", scale, err)
		}
	}
}

// TestCounterCacheSizeMatrix runs SCA across counter-cache sizes down to a
// single set, where eviction writebacks are constant, and demands crash
// consistency throughout (Fig. 15's knob plus the eviction path).
func TestCounterCacheSizeMatrix(t *testing.T) {
	for _, size := range []int{16 << 10, 64 << 10, 1 << 20} {
		spec := &machine.Spec{Engine: "sca", CounterCacheBytes: size}
		rep, err := crash.Sweep(spec, &workloads.HashTable{}, itParams, 6, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Failures() {
			t.Errorf("counter cache %dKB: crash at %v: %v", size>>10, f.CrashAt, f.Err)
		}
	}
}
