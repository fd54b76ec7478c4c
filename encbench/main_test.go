package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"encnvm/internal/exp"
	"encnvm/internal/workloads"
)

// tiny shrinks every workload to a smoke-test size.
func tiny() settings {
	s := defaultSettings(7)
	s.budget = 0
	s.minReps = 1
	s.workers = 2
	s.campaignItems, s.campaignOps = 16, 4
	s.staticItems, s.staticOps = 16, 4
	s.setupSamples = 2
	s.scale = exp.Scale{
		Name:            "tiny",
		Params:          workloads.Params{Seed: 7, Items: 32, Ops: 8, OpsPerTx: 1, ComputeCycles: 200},
		ItemsFor:        map[string]int{},
		Cores:           []int{1, 2},
		CrashPoints:     2,
		Fig15Footprints: []int{1 << 10},
		Fig15CacheSizes: []int{8 << 10},
		Fig16Lines:      []int{1, 4},
		Fig17Factors:    []float64{1},
	}
	return s
}

// declared returns the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// printed parses the JSON object printResult writes last.
func printed(t *testing.T, workload string, res result) result {
	t.Helper()
	var buf bytes.Buffer
	printResult(&buf, workload, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return got
}

func names(res result) []string {
	var out []string
	for n, m := range res.Metrics {
		out = append(out, n+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func TestUntracedWorkloadsPrintDeclaredMetrics(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range workloadNames {
		res := printed(t, w, runWorkload(tiny(), w, io.Discard))
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w, res.Correct, res.Failed, res.Attempted)
		}
		if got := names(res); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s prints %v, BENCHMARK.json declares %v", w, got, want)
		}
		for n, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, n, m.Value)
			}
		}
	}
}

func TestTracedRunPrintsDeclaredMetricsAndMatchesVerdicts(t *testing.T) {
	tr := newTracer()
	res := printed(t, "traced", runTraced(tiny(), tr, io.Discard))
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d", res.Failed, res.Attempted)
	}
	want := declared(t, "per_layer")
	if got := names(res); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("traced run prints %v, BENCHMARK.json declares %v", got, want)
	}
	if n := tr.count("crash.inject"); n != int(res.Metrics["crash.injections"].Value) || n == 0 {
		t.Errorf("%d injection spans for %v injections", n, res.Metrics["crash.injections"].Value)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(b, []byte("\n")); lines != len(tr.spans) {
		t.Errorf("wrote %d span lines for %d spans", lines, len(tr.spans))
	}
}

func TestTracedCampaignCatchesVerdictMismatch(t *testing.T) {
	cfg := tiny()
	base, err := timeCampaign(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, tl := tracedCampaign(cfg, nil, base); tl.failed != 0 {
		t.Fatalf("faithful base: %d failures: %v", tl.failed, tl.errs)
	}
	base.run.Report.Results[0].RecoveredEntries++
	if _, tl := tracedCampaign(cfg, nil, base); tl.failed != 1 {
		t.Errorf("altered base row: %d failures, want 1: %v", tl.failed, tl.errs)
	}
}

func TestCountsRepeat(t *testing.T) {
	cfg := tiny()
	a, err := timeCampaign(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := timeCampaign(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := campaignCounts(a.run), campaignCounts(b.run); x != y {
		t.Errorf("campaign counts %s then %s", x, y)
	}
	var tl tally
	g1, g2 := tracedGrid(cfg, newTracer(), &tl), tracedGrid(cfg, newTracer(), &tl)
	for _, n := range gridCounts {
		if g1[n] != g2[n] {
			t.Errorf("%s: %v then %v", n, g1[n], g2[n])
		}
	}
	s1, s2 := staticOnce(cfg, nil, &tl), staticOnce(cfg, nil, &tl)
	if s1.ops != s2.ops || s1.classes != s2.classes {
		t.Errorf("static counts %d/%d then %d/%d", s1.ops, s1.classes, s2.ops, s2.classes)
	}
	if tl.failed != 0 {
		t.Errorf("failures: %v", tl.errs)
	}
}

func TestFiguresMatchGoldenAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at the quick scale")
	}
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "experiments", "testdata", "golden_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSettings(exp.Quick.Params.Seed)
	cfg.golden = golden
	var tl tally
	figuresOnce(cfg, nil, &tl)
	if tl.failed != 0 || tl.attempted != len(figures) {
		t.Fatalf("golden run: %d of %d failed: %v", tl.failed, tl.attempted, tl.errs)
	}
	cfg.golden = append([]byte("x"), golden...)
	tl = tally{}
	figuresOnce(cfg, nil, &tl)
	if tl.failed == 0 {
		t.Error("a changed golden went unnoticed")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "static", "--trace", "2"},
		{"--workload", "static", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
