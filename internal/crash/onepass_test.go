package crash

import (
	"fmt"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// onePassParams keeps every campaign in the product below a few
// hundred gaps.
var onePassParams = workloads.Params{Seed: 5, Items: 2, Ops: 2, OpsPerTx: 1}

// freshSamples bounds the fresh-machine injections per campaign: each
// costs a machine build and a prefix replay, about a millisecond.
const freshSamples = 32

// The one-pass campaign must equal the path it replaced: a fresh
// machine per gap, crashed with InjectAt (RunUntil, then the
// mutating DrainADR). Every registered design and workload, both
// transaction modes, paper and legacy primitives. The exhaustive
// campaign stops its machines at every gap; freshSamples of them,
// strided with a per-campaign offset so the campaigns together cover
// every residue, plus the last gap, are re-injected on fresh machines.
// The pruned campaign with class validation must give one report at
// every worker count, and its verdicts must be the exhaustive ones.
func TestOnePassCampaignMatchesFreshInjection(t *testing.T) {
	for _, name := range machine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := campaignSpec(t, name)
			seq := 0
			for _, w := range workloads.Extended() {
				for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
					for _, legacy := range []bool{false, true} {
						p := onePassParams
						p.TxMode, p.Legacy = mode, legacy
						checkOnePass(t, spec, w, p, seq, fmt.Sprintf("%s/%s/%v/legacy=%v", name, w.Name(), mode, legacy))
						seq++
					}
				}
			}
		})
	}
}

func checkOnePass(t *testing.T, spec *machine.Spec, w workloads.Workload, p workloads.Params, seq int, what string) {
	t.Helper()
	ex, err := RunCampaign(spec, w, p, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	traces := BuildTraces(w, p, 1)
	gaps := len(ex.Report.Results)
	stride := (gaps + freshSamples - 1) / freshSamples
	for g, got := range ex.Report.Results {
		if g%stride != seq%stride && g != gaps-1 {
			continue
		}
		want, err := InjectAt(spec, w, traces, got.CrashAt)
		if err != nil {
			t.Fatalf("%s: gap %d: %v", what, g, err)
		}
		want.Err = nil // compared through Error
		if got != want {
			t.Fatalf("%s: gap %d: one pass %+v, fresh machine %+v", what, g, got, want)
		}
	}

	var first string
	for _, workers := range []int{1, 2, 8} {
		pr, err := RunCampaign(spec, w, p, CampaignOptions{
			Workers: workers, Pruned: true, ValidateMembers: 2, ValidateSeed: 9})
		if err != nil {
			t.Fatalf("%s: pruned -j %d: %v", what, workers, err)
		}
		if got := marshalRun(t, pr); first == "" {
			first = got
		} else if got != first {
			t.Fatalf("%s: pruned -j %d report differs from -j 1:\n%s\nvs\n%s", what, workers, got, first)
		}
		for g := range ex.Report.Results {
			if err := sameVerdict(ex.Report.Results[g], pr.Report.Results[g]); err != nil {
				t.Fatalf("%s: -j %d gap %d: pruned verdict diverges: %v", what, workers, g, err)
			}
		}
	}
}

// Each worker's machine replays the trace at most once: a campaign
// executes at most Workers full replays' worth of events, where the
// fresh-machine path executed one prefix per injection.
func TestCampaignReplaysAtMostOncePerWorker(t *testing.T) {
	t.Parallel()
	spec := campaignSpec(t, "sca")
	w := &workloads.BTree{}
	traces := BuildTraces(w, campaignParams, 1)
	sys, err := replay.NewSpecSources(spec, trace.Sources(traces))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.Eng.Run()
	once := sys.Eng.Steps()
	for _, workers := range []int{1, 2, 4} {
		run, err := RunCampaign(spec, w, campaignParams, CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if run.ReplayEvents == 0 || run.ReplayEvents > uint64(workers)*once {
			t.Errorf("-j %d: %d replay events for %d injections; one full replay is %d",
				workers, run.ReplayEvents, run.Report.Simulated, once)
		}
	}
}
