package crash

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

var campaignParams = workloads.Params{Seed: 7, Items: 6, Ops: 6, OpsPerTx: 1, ComputeCycles: 20}

func campaignSpec(t *testing.T, name string) *machine.Spec {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// marshalRun renders a run's reports with wall-clock fields zeroed —
// the byte-comparison form the kill-and-resume contract is stated in.
func marshalRun(t *testing.T, run *CampaignRun) string {
	t.Helper()
	camp := run.Campaign
	camp.WallMS = 0
	b1, err := json.Marshal(run.Report)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b1) + "\n" + string(b2)
}

// Pruning must be invisible in the verdicts: a pruned campaign's
// per-gap results — verdicts attributed from cell representatives —
// must equal the exhaustive campaign's, for passing and failing
// designs alike.
func TestCampaignPrunedMatchesExhaustive(t *testing.T) {
	cases := []struct {
		design string
		w      workloads.Workload
		p      workloads.Params
	}{
		{"sca", &workloads.Queue{}, campaignParams},
		{"sca", &workloads.ArraySwap{}, campaignParams},
		{"ideal", &workloads.ArraySwap{}, func() workloads.Params {
			p := campaignParams
			p.Legacy = true // the §2.2 failure: verdict attribution must survive violations
			return p
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.design+"/"+tc.w.Name(), func(t *testing.T) {
			t.Parallel()
			spec := campaignSpec(t, tc.design)
			exRun, err := RunCampaign(spec, tc.w, tc.p, CampaignOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prRun, err := RunCampaign(spec, tc.w, tc.p, CampaignOptions{Pruned: true})
			if err != nil {
				t.Fatal(err)
			}
			ex, pr := exRun.Report, prRun.Report
			if len(ex.Results) != ex.CrashPoints || len(pr.Results) != pr.CrashPoints ||
				ex.CrashPoints != pr.CrashPoints {
				t.Fatalf("crash points: exhaustive %d/%d, pruned %d/%d",
					len(ex.Results), ex.CrashPoints, len(pr.Results), pr.CrashPoints)
			}
			for i := range ex.Results {
				if err := sameVerdict(ex.Results[i], pr.Results[i]); err != nil {
					t.Fatalf("gap %d (crash at %v): pruned verdict diverges: %v",
						i, ex.Results[i].CrashAt, err)
				}
				if ex.Results[i].CrashAt != pr.Results[i].CrashAt {
					t.Fatalf("gap %d deadline %v vs %v", i, ex.Results[i].CrashAt, pr.Results[i].CrashAt)
				}
			}
			if pr.Cells >= pr.CrashPoints {
				t.Errorf("pruning merged nothing: %d cells for %d points", pr.Cells, pr.CrashPoints)
			}
			if ex.Pruned != 0 || ex.PrunedFraction != 0 {
				t.Errorf("exhaustive report claims pruning: %+v", ex)
			}
			if pr.Pruned != pr.CrashPoints-pr.Cells {
				t.Errorf("pruned count %d, want %d", pr.Pruned, pr.CrashPoints-pr.Cells)
			}
		})
	}
}

// -validate-classes: sampled members must agree with representatives.
func TestCampaignValidateClasses(t *testing.T) {
	t.Parallel()
	run, err := RunCampaign(campaignSpec(t, "sca"), &workloads.Queue{}, campaignParams,
		CampaignOptions{Pruned: true, ValidateMembers: 2, ValidateSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if run.Report.Validated == 0 {
		t.Fatal("validation simulated no members")
	}
	if got := run.Report.Simulated; got != run.Report.Cells+run.Report.Validated {
		t.Errorf("simulated %d, want cells %d + validated %d",
			got, run.Report.Cells, run.Report.Validated)
	}
}

// A halted campaign must resume from its checkpoint and reproduce the
// uninterrupted run's reports byte for byte, without re-simulating
// completed cells — whether it was killed after the first cell, a few,
// or all but one.
func TestCampaignKillAndResume(t *testing.T) {
	t.Parallel()
	spec := campaignSpec(t, "sca")
	w := &workloads.Queue{}
	opts := CampaignOptions{Workers: 2, Pruned: true, ValidateMembers: 1}
	full, err := RunCampaign(spec, w, campaignParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := full.Report.Cells
	for _, halt := range []int{1, 3, cells - 1} {
		o := opts
		o.CheckpointPath = filepath.Join(t.TempDir(), "campaign.jsonl")
		o.CheckpointEvery, o.HaltAfter = 2, halt
		if _, err := RunCampaign(spec, w, campaignParams, o); !errors.Is(err, ErrCampaignHalted) {
			t.Fatalf("halt after %d: %v, want ErrCampaignHalted", halt, err)
		}
		o.CheckpointEvery, o.HaltAfter, o.Resume = 0, 0, true
		resumed, err := RunCampaign(spec, w, campaignParams, o)
		if err != nil {
			t.Fatalf("resume after %d: %v", halt, err)
		}
		if resumed.NewlySimulated > cells-halt {
			t.Errorf("resume after %d re-simulated %d of %d cells", halt, resumed.NewlySimulated, cells)
		}
		if got, want := marshalRun(t, resumed), marshalRun(t, full); got != want {
			t.Errorf("resume after %d differs from the uninterrupted run:\n%s\nvs\n%s", halt, got, want)
		}
	}
}

// A checkpoint binds its campaign fingerprint; resuming under different
// parameters must be rejected, not silently blended.
func TestCampaignResumeFingerprintMismatch(t *testing.T) {
	t.Parallel()
	spec := campaignSpec(t, "sca")
	w := &workloads.ArraySwap{}
	ck := filepath.Join(t.TempDir(), "campaign.jsonl")
	_, err := RunCampaign(spec, w, campaignParams,
		CampaignOptions{Pruned: true, CheckpointPath: ck, HaltAfter: 1})
	if !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("halted run returned %v", err)
	}
	p := campaignParams
	p.Seed++
	if _, err := RunCampaign(spec, w, p,
		CampaignOptions{Pruned: true, CheckpointPath: ck, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("reseeded resume returned %v, want fingerprint mismatch", err)
	}
}

func TestCampaignRequiresSingleCore(t *testing.T) {
	spec := campaignSpec(t, "sca")
	spec.Cores = 2
	if _, err := RunCampaign(spec, &workloads.Queue{}, campaignParams, CampaignOptions{}); err == nil {
		t.Fatal("multi-core campaign accepted")
	}
}

// The report wire shape: pruning counters are explicit zeros in every
// mode (absent field == old binary, zero == nothing pruned), while
// per-result errors appear only on inconsistency.
func TestReportWireShape(t *testing.T) {
	b, err := json.Marshal(Report{})
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	for _, key := range []string{`"design"`, `"workload"`, `"mode"`, `"crash_points":0`,
		`"simulated":0`, `"classes":0`, `"cells":0`, `"pruned":0`,
		`"pruned_fraction":0`, `"validated":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("empty report %s missing explicit %s", line, key)
		}
	}
	if strings.Contains(line, `"results"`) {
		t.Errorf("empty report carries results: %s", line)
	}

	b, err = json.Marshal(Result{})
	if err != nil {
		t.Fatal(err)
	}
	line = string(b)
	for _, key := range []string{`"crash_at":0`, `"lost_counter_lines":0`,
		`"recovered_entries":0`, `"corrupt_log":0`, `"osiris"`} {
		if !strings.Contains(line, key) {
			t.Errorf("consistent result %s missing %s", line, key)
		}
	}
	if strings.Contains(line, `"error"`) {
		t.Errorf("consistent result carries an error key: %s", line)
	}
	b, err = json.Marshal(Result{Error: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"error":"boom"`) {
		t.Errorf("inconsistent result drops its error: %s", b)
	}
}

// The checkpoint and campaign-report wire shapes other tools consume.
func TestCampaignWireShapes(t *testing.T) {
	b, err := json.Marshal(CellRecord{})
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	for _, key := range []string{`"cell":0`, `"class":0`, `"gaps":[0,0]`, `"rep":0`,
		`"crash_at":0`, `"consistent":false`, `"lost_counter_lines":0`,
		`"recovered_entries":0`, `"corrupt_log":0`, `"osiris"`, `"validated":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("cell record %s missing %s", line, key)
		}
	}
	b, err = json.Marshal(CampaignReport{Schema: ReportSchema})
	if err != nil {
		t.Fatal(err)
	}
	line = string(b)
	for _, key := range []string{`"schema":"encnvm/campaign-report/v1"`, `"mode"`,
		`"ops":0`, `"crash_points":0`, `"classes":0`, `"cells":0`, `"simulated":0`,
		`"validated":0`, `"pruned":0`, `"pruned_fraction":0`, `"violation_points":0`,
		`"violations"`, `"wall_ms":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("campaign report %s missing %s", line, key)
		}
	}
}
