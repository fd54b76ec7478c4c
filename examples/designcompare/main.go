// Designcompare runs one workload under all six memory-system designs and
// prints a side-by-side comparison of runtime, throughput, NVM write
// traffic, and counter-cache behaviour — a miniature of the paper's
// evaluation on a single workload.
package main

import (
	"fmt"
	"log"

	"encnvm/internal/config"
	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

func main() {
	const workload = "rbtree"
	p := workloads.Params{Seed: 7, Items: 2048, Ops: 512}
	w, err := workloads.ByName(workload)
	if err != nil {
		log.Fatal(err)
	}
	// One trace set, six designs: identical work everywhere.
	traces := crash.BuildTraces(w, p, 1)

	fmt.Printf("workload %s: %d initial items, %d transactions\n\n", workload, p.Items, p.Ops)
	fmt.Printf("%-22s %12s %12s %12s %10s %9s\n",
		"design", "runtime(us)", "tx/s", "NVM bytes", "ctr bytes", "ctr$ hit")
	var base float64
	for _, d := range config.AllDesigns {
		spec, err := machine.SpecForDesign(d)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(spec, workload, trace.Sources(traces), nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.VerifyResult(res); err != nil {
			log.Fatalf("%v failed end-to-end verification: %v", d, err)
		}
		if d == config.NoEncryption {
			base = float64(res.Runtime)
		}
		hit := res.Stats.HitRate(stats.CounterCacheHits, stats.CounterCacheMiss)
		fmt.Printf("%-22s %12.1f %12.0f %12d %10d %8.1f%%  (%.2fx baseline)\n",
			res.Design, res.Runtime.Nanoseconds()/1000, res.Throughput,
			res.BytesWritten, res.Stats.Count(stats.CounterBytesWritten),
			hit*100, float64(res.Runtime)/base)
	}
	fmt.Println("\nall six final NVM images decrypted and validated end-to-end")
}
