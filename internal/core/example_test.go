package core_test

import (
	"fmt"

	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// ExampleRunWorkload runs a persistent B-tree under selective
// counter-atomicity and verifies the final encrypted NVM image end to end.
func ExampleRunWorkload() {
	res, err := core.RunWorkload(core.Options{
		Spec:     &machine.Spec{Engine: "sca"},
		Workload: "btree",
		Params:   workloads.Params{Seed: 1, Items: 64, Ops: 16},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Transactions)
	fmt.Println("verified:", core.VerifyResult(res) == nil)
	// Output:
	// transactions: 16
	// verified: true
}

// ExampleCrashSweep injects power failures across a run and reports how
// many recovery attempts were inconsistent (zero under SCA).
func ExampleCrashSweep() {
	rep, err := core.CrashSweep(core.Options{
		Spec:     &machine.Spec{Engine: "sca"},
		Workload: "queue",
		Params:   workloads.Params{Seed: 2, Items: 32, Ops: 8},
	}, 6)
	if err != nil {
		panic(err)
	}
	fmt.Println("inconsistent:", len(rep.Failures()))
	// Output:
	// inconsistent: 0
}
