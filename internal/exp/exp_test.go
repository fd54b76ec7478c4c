package exp

import (
	"errors"
	"io"
	"strings"
	"testing"

	"encnvm/internal/workloads"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "full"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %v, %v", name, sc.Name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestParamsForOverride(t *testing.T) {
	if got := Full.ParamsFor("arrayswap").Items; got != 1<<19 {
		t.Errorf("arrayswap items = %d", got)
	}
	if got := Full.ParamsFor("unknown").Items; got != Full.Params.Items {
		t.Errorf("fallback items = %d", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{4, 1}); g != 2 {
		t.Errorf("geomean(4,1) = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}

func TestFig12ShapeQuick(t *testing.T) {
	res, err := Fig12(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 5 {
		t.Fatalf("workloads = %d", len(res.Workloads))
	}
	// Core orderings the paper reports: every encrypted design is slower
	// than no-encryption (>= 1.0 normalized), and SCA beats FCA.
	for _, w := range res.Workloads {
		row := res.Normalized[w]
		for d, v := range row {
			if v < 0.95 {
				t.Errorf("%s/%v normalized runtime %.3f < baseline", w, d, v)
			}
		}
		if row["sca"] > row["fca"] {
			t.Errorf("%s: SCA (%.3f) slower than FCA (%.3f)", w, row["sca"], row["fca"])
		}
	}
	if res.Average["sca"] >= res.Average["fca"] {
		t.Errorf("average: SCA %.3f !< FCA %.3f", res.Average["sca"], res.Average["fca"])
	}
}

func TestFig13ShapeQuick(t *testing.T) {
	res, err := Fig13(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// SCA must beat FCA at every core count and trail Ideal by a
	// bounded factor.
	for _, n := range Quick.Cores {
		if r := res.SCAOverFCA(n); r <= 1.0 {
			t.Errorf("%d cores: SCA/FCA throughput ratio %.3f <= 1", n, r)
		}
		if r := res.SCAOverIdeal(n); r > 1.02 {
			t.Errorf("%d cores: SCA beats Ideal (%.3f)?", n, r)
		}
	}
}

func TestFig14ShapeQuick(t *testing.T) {
	res, err := Fig14(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Every encrypted design writes at least as much as no-encryption,
	// and SCA writes no more than FCA (counter coalescing).
	for _, w := range res.Workloads {
		row := res.Normalized[w]
		// Per-workload, SCA may tie FCA (both coalesce in the queue);
		// it must never write materially more.
		if row["sca"] > row["fca"]*1.02 {
			t.Errorf("%s: SCA traffic (%.3f) exceeds FCA (%.3f)", w, row["sca"], row["fca"])
		}
		if row["fca"] < 1.0 {
			t.Errorf("%s: FCA traffic below baseline", w)
		}
	}
	if res.Average["sca"] >= res.Average["fca"] {
		t.Errorf("average traffic: SCA %.3f !< FCA %.3f", res.Average["sca"], res.Average["fca"])
	}
}

func TestFig15ShapeQuick(t *testing.T) {
	res, err := Fig15(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.FootprintItems {
		n := len(res.CacheSizes)
		if res.Speedup[i][0] != 1.0 {
			t.Errorf("footprint %d: base speedup %.3f != 1", i, res.Speedup[i][0])
		}
		// A larger counter cache never hurts the miss rate.
		if res.MissRate[i][n-1] > res.MissRate[i][0]+0.01 {
			t.Errorf("footprint %d: miss rate rose with cache size: %.3f -> %.3f",
				i, res.MissRate[i][0], res.MissRate[i][n-1])
		}
		// And never slows the run down materially.
		if res.Speedup[i][n-1] < 0.99 {
			t.Errorf("footprint %d: largest cache slower than smallest (%.3f)", i, res.Speedup[i][n-1])
		}
	}
}

func TestFig16ShapeQuick(t *testing.T) {
	res, err := Fig16(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		ov := res.Overhead[w]
		// SCA is never faster than Ideal, and overhead shrinks (or at
		// least does not grow materially) as transactions get larger.
		for i, v := range ov {
			if v < 0.97 {
				t.Errorf("%s tx %dL: SCA faster than Ideal (%.3f)", w, res.TxLines[i], v)
			}
		}
		if last, first := ov[len(ov)-1], ov[0]; last > first+0.05 {
			t.Errorf("%s: overhead grew with tx size: %.3f -> %.3f", w, first, last)
		}
	}
}

func TestFig17ShapeQuick(t *testing.T) {
	res, err := Fig17(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReadSweep) != len(Quick.Fig17Factors) || len(res.WriteSweep) != len(Quick.Fig17Factors) {
		t.Fatal("sweep lengths wrong")
	}
	for i := range res.ReadSweep {
		if res.ReadSweep[i] <= 0 || res.WriteSweep[i] <= 0 {
			t.Fatalf("nonpositive speedup at factor %v", Quick.Fig17Factors[i])
		}
	}
	// The quick scale is cache-resident, so only structure is asserted
	// here; TestFig17ReadDominatedTrend checks the direction with a
	// footprint that actually misses.
}

// TestFig17ReadDominatedTrend verifies the figure's headline direction —
// SCA faster than the plain co-located design under read-dominated load —
// with a footprint that exceeds the L2. Skipped under -short.
func TestFig17ReadDominatedTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second footprint sweep")
	}
	sc := Quick
	sc.Params.Ops = 4096
	sc.Fig17Factors = []float64{3, 1}
	sc.ItemsFor = map[string]int{"arrayswap": 1 << 20}
	// Request the footprint-controlled workload's cells alone, for
	// runtime.
	s := NewSession(sc)
	for _, f := range sc.Fig17Factors {
		colo, err := s.result(fig17Cell(sc, "colocated", f, 1, "arrayswap"), 1)
		if err != nil {
			t.Fatal(err)
		}
		sca, err := s.result(fig17Cell(sc, "sca", f, 1, "arrayswap"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if r := float64(colo.runtime) / float64(sca.runtime); r <= 1.0 {
			t.Errorf("factor %vx: SCA not faster than Co-located (%.3f)", f, r)
		}
	}
}

func TestFig4Demo(t *testing.T) {
	res, err := Fig4(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.LegacyFailures == 0 {
		t.Error("legacy software never failed on encrypted NVMM")
	}
	if res.SCAFailures != 0 {
		t.Errorf("SCA failed %d crash points", res.SCAFailures)
	}
}

func TestFig8Demo(t *testing.T) {
	var sb strings.Builder
	res, err := Fig8(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.SCA >= res.FCA {
		t.Errorf("SCA commit (%v) not earlier than FCA (%v)", res.SCA, res.FCA)
	}
	if !strings.Contains(sb.String(), "FCA") {
		t.Error("Fig8 output missing FCA row")
	}
}

func TestTablesPrint(t *testing.T) {
	var sb strings.Builder
	if err := Table2(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Table1(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter write queue", "PCM", "prepare", "commit"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

// failAfterWriter accepts n bytes, then fails every write — a full disk
// or closed pipe mid-table.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// A failed write must surface as an error from every table and figure
// (and so as a non-zero exit from cmd/experiments), not as silently
// truncated output.
func TestTablesPropagateWriteError(t *testing.T) {
	werr := errors.New("disk full")
	// Every figure cmd/experiments runs, in its order. The figures share
	// one session, so their repeated runs are memo hits.
	s := NewSession(Quick)
	for _, f := range []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"table2", Table2},
		{"table1", Table1},
		{"fig4", func(w io.Writer) error { _, err := Fig4(Quick, w); return err }},
		{"fig8", func(w io.Writer) error { _, err := Fig8(w); return err }},
		{"fig12", func(w io.Writer) error { _, err := s.Fig12(w); return err }},
		{"fig13", func(w io.Writer) error { _, err := s.Fig13(w); return err }},
		{"fig14", func(w io.Writer) error { _, err := s.Fig14(w); return err }},
		{"fig15", func(w io.Writer) error { _, err := s.Fig15(w); return err }},
		{"fig16", func(w io.Writer) error { _, err := Fig16(Quick, w); return err }},
		{"fig17", func(w io.Writer) error { _, err := s.Fig17(w); return err }},
		{"lifetime", func(w io.Writer) error { _, err := s.Lifetime(w); return err }},
		{"osiris", func(w io.Writer) error { _, err := s.Osiris(w); return err }},
		{"integrity", func(w io.Writer) error { _, err := s.Integrity(w); return err }},
	} {
		// Failing at byte 0 and mid-stream must both propagate.
		for _, n := range []int{0, 40} {
			if err := f.fn(&failAfterWriter{n: n, err: werr}); !errors.Is(err, werr) {
				t.Errorf("%s with writer failing after %d bytes: err = %v, want %v", f.name, n, err, werr)
			}
		}
		if err := f.fn(io.Discard); err != nil {
			t.Errorf("%s on working writer: %v", f.name, err)
		}
	}
}

func TestLifetimeAnalysis(t *testing.T) {
	res, err := Lifetime(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 5 {
		t.Fatalf("workloads = %d", len(res.Workloads))
	}
	// SCA never writes more than FCA, so the lifetime gain is >= 0 up to
	// measurement tolerance, and hotspots are at least average.
	for _, w := range res.Workloads {
		if res.GainOverFCA[w] < -0.02 {
			t.Errorf("%s: negative lifetime gain vs FCA: %.3f", w, res.GainOverFCA[w])
		}
		if res.HotspotFactor[w] < 1.0 {
			t.Errorf("%s: hotspot factor %.2f < 1", w, res.HotspotFactor[w])
		}
	}
	if res.AvgGainFCA < 0 {
		t.Errorf("average lifetime gain vs FCA negative: %.3f", res.AvgGainFCA)
	}
}

func TestOsirisStudy(t *testing.T) {
	res, err := Osiris(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.LegacyFailures != 0 {
		t.Errorf("Osiris failed %d/%d legacy crash points", res.LegacyFailures, res.LegacyPoints)
	}
	for _, w := range res.Workloads {
		// Osiris pays no ccwb waits: it should be at least as fast as
		// SCA (within tolerance).
		if res.VsSCA[w] > 1.05 {
			t.Errorf("%s: Osiris %.3fx slower than SCA", w, res.VsSCA[w])
		}
	}
}

func TestTraceCachePrefixReuse(t *testing.T) {
	s := NewSession(Quick)
	w, err := workloads.ByName("arrayswap")
	if err != nil {
		t.Fatal(err)
	}
	p := Quick.ParamsFor("arrayswap")
	four := s.traces(w, p, 4)
	if len(four) != 4 {
		t.Fatalf("got %d traces", len(four))
	}
	two := s.traces(w, p, 2)
	if len(two) != 2 {
		t.Fatalf("got %d traces for 2 cores", len(two))
	}
	// The 2-core set must be the prefix of the 4-core set (same trace
	// pointers), not a rebuild.
	if two[0] != four[0] || two[1] != four[1] {
		t.Fatal("prefix not reused")
	}
}

func TestFig12Deterministic(t *testing.T) {
	a, err := Fig12(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range a.Workloads {
		for d, v := range a.Normalized[w] {
			if b.Normalized[w][d] != v {
				t.Fatalf("%s/%v differs across identical runs: %v vs %v",
					w, d, v, b.Normalized[w][d])
			}
		}
	}
}

func TestIntegrityShapeQuick(t *testing.T) {
	res, err := Integrity(Quick, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 5 {
		t.Fatalf("workloads = %d", len(res.Workloads))
	}
	// Core orderings the integrity literature reports: BMT's tree-path
	// writes inflate write traffic well past counters-only SCA, and
	// SecPM — no annotations, no blocking writebacks — never runs slower
	// than BMT.
	for _, w := range res.Workloads {
		if v := res.Traffic[w]["bmt"]; v <= 1.0 {
			t.Errorf("%s: BMT traffic %.3f not above the SCA baseline", w, v)
		}
		if v := res.Runtime[w]["bmt"]; v < 0.95 {
			t.Errorf("%s: BMT runtime %.3f below baseline — tree paths cannot be free", w, v)
		}
		if res.Runtime[w]["secpm"] > res.Runtime[w]["bmt"] {
			t.Errorf("%s: SecPM (%.3f) slower than BMT (%.3f)", w,
				res.Runtime[w]["secpm"], res.Runtime[w]["bmt"])
		}
	}
	if res.AvgTraffic["bmt"] <= res.AvgTraffic["secpm"] {
		t.Errorf("average traffic: BMT %.3f !> SecPM %.3f",
			res.AvgTraffic["bmt"], res.AvgTraffic["secpm"])
	}
}
