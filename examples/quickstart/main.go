// Quickstart: build an encrypted NVMM system, run a transactional
// workload under selective counter-atomicity, crash it mid-run, and
// recover a consistent state.
package main

import (
	"fmt"
	"log"

	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

func main() {
	// 1. Run a persistent B-tree under the paper's SCA design.
	res, err := core.RunWorkload(core.Options{
		Spec:     &machine.Spec{Engine: "sca"},
		Workload: "btree",
		Params:   workloads.Params{Seed: 1, Items: 512, Ops: 128},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d transactions in %.1fus (%.0f tx/s), %d bytes written to NVM\n",
		res.Transactions, res.Runtime.Nanoseconds()/1000, res.Throughput, res.BytesWritten)

	// 2. Verify the final encrypted NVM image decrypts and the B-tree
	//    invariants hold end-to-end.
	if err := core.VerifyResult(res); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("final NVM image decrypts and validates")

	// 3. Crash the same workload at 16 points across its execution and
	//    recover each time.
	rep, err := core.CrashSweep(core.Options{
		Spec:     &machine.Spec{Engine: "sca"},
		Workload: "btree",
		Params:   workloads.Params{Seed: 1, Items: 128, Ops: 32},
	}, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash sweep: %d points, %d inconsistent\n", len(rep.Results), len(rep.Failures()))
	rolled := 0
	for _, r := range rep.Results {
		rolled += r.RecoveredEntries
	}
	fmt.Printf("undo-log rollbacks performed across the sweep: %d\n", rolled)
	_ = crash.DefaultArena // see internal/crash for the recovery pipeline
}
