package memctrl_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/accept.golden from the current controller")

// renderAccept runs every registered machine on every workload at one
// and four cores and renders, one line per run, the measured and total
// runtime, every mc.* counter and every mc.* latency distribution's
// count, sum, min and max.
func renderAccept(t *testing.T) []byte {
	t.Helper()
	p := workloads.Params{Seed: 42, Items: 64, Ops: 32, OpsPerTx: 1, TxMode: persist.Undo}
	var b bytes.Buffer
	for _, name := range machine.Names() {
		base, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads.All() {
			for _, cores := range []int{1, 4} {
				spec := *base
				spec.Cores = cores
				res, err := core.RunWorkload(core.Options{Spec: &spec, Workload: w.Name(), Params: p})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, w.Name(), cores, err)
				}
				fmt.Fprintf(&b, "%s/%s/%dc runtime=%d total=%d", name, w.Name(), cores,
					res.Runtime, res.TotalRuntime)
				ctrs := res.Stats.Counters()
				var keys []string
				for k := range ctrs {
					if strings.HasPrefix(k, "mc.") {
						keys = append(keys, k)
					}
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%d", k, ctrs[k])
				}
				lats := res.Stats.Latencies()
				keys = keys[:0]
				for k := range lats {
					if strings.HasPrefix(k, "mc.") {
						keys = append(keys, k)
					}
				}
				sort.Strings(keys)
				for _, k := range keys {
					l := lats[k]
					fmt.Fprintf(&b, " %s=%d/%d/%d/%d", k, l.Count(), l.Sum(), l.Min(), l.Max())
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.Bytes()
}

// The acceptance golden: testdata/accept.golden pins, for every machine
// on every workload at one and four cores, the runtime and every memory
// controller counter — write-queue-full stalls and ready-bit waits
// included — so a change to how the controller finds acceptable writes
// cannot move when a write is accepted or how its stalls are tallied.
// Regenerate with go test -run TestAcceptGolden -update only for an
// intended model change.
func TestAcceptGolden(t *testing.T) {
	path := filepath.Join("testdata", "accept.golden")
	got := renderAccept(t)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("accept golden drift at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
