package crash

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

// sweepCase is one row of the sweep golden: a machine, a workload and
// the parameters its traces are built with.
type sweepCase struct {
	label string
	spec  *machine.Spec
	w     workloads.Workload
	p     workloads.Params
}

// sweepCases lists every registered machine on every workload, plus the
// non-default machines the CLIs and figures build: Osiris with a
// stop-loss of 1 on legacy software, SCA on two cores, and SCA with a
// 16 KB counter cache.
func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	p := workloads.Params{Seed: 42, Items: 32, Ops: 12, OpsPerTx: 1, TxMode: persist.Undo}
	var cs []sweepCase
	for _, name := range machine.Names() {
		spec, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads.All() {
			cs = append(cs, sweepCase{name + "/" + w.Name(), spec, w, p})
		}
	}
	legacy := p
	legacy.Legacy = true
	cs = append(cs,
		sweepCase{"osiris-stoploss1/legacy-arrayswap", &machine.Spec{Engine: "osiris", StopLoss: 1},
			&workloads.ArraySwap{}, legacy},
		sweepCase{"sca-2cores/hashtable", &machine.Spec{Engine: "sca", Cores: 2},
			&workloads.HashTable{}, p},
		sweepCase{"sca-ctr16k/hashtable", &machine.Spec{Engine: "sca", CounterCacheBytes: 16 << 10},
			&workloads.HashTable{}, p},
	)
	return cs
}

// renderSweeps renders the sha256 of each case's 8-point grid-sweep
// Report, encoded as JSON, one line per case.
func renderSweeps(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range sweepCases(t) {
		rep, err := Sweep(c.spec, c.w, c.p, 8, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s points=%d failures=%d sha256=%x\n",
			c.label, len(rep.Results), len(rep.Failures()), sha256.Sum256(js))
	}
	return b.Bytes()
}

// The grid-sweep golden: testdata/sweeps.golden pins every report a
// machine-by-workload sweep produces, so a change to how sweeps name,
// build or walk their machines cannot move a crash verdict, a crash
// instant or a recovery count unnoticed.
func TestSweepGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweeps.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderSweeps(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("sweep golden drift at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
