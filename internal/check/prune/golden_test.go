package prune_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/prune"
	"encnvm/internal/check/verify"
	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine/engines"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// goldenTraces builds every workload's trace at the golden parameters.
func goldenTraces() (names []string, traces []*trace.Trace) {
	p := workloads.Params{Seed: 42, Items: 64, Ops: 24, OpsPerTx: 1, TxMode: persist.Undo}
	for _, w := range workloads.All() {
		names = append(names, w.Name())
		traces = append(traces, crash.BuildTraces(w, p, 1)[0])
	}
	return names, traces
}

// renderPartitions renders, for every golden trace under the nil model
// and under each builtin engine's model, the class count and the sha256
// of the partition's Encode bytes and its Hash. Both digests are wire
// contracts: Encode is the file format, Hash binds campaign checkpoints.
func renderPartitions(t *testing.T) []byte {
	t.Helper()
	type model struct {
		name string
		m    *verify.Model
	}
	models := []model{{"nil", nil}}
	for _, name := range engines.Names() {
		e, err := engines.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{name, enginecheck.ModelFor(e, config.Default(e.Design))})
	}
	names, traces := goldenTraces()
	arenas := []persist.Arena{persist.ArenaFor(0, crash.DefaultArena)}
	var b bytes.Buffer
	for i, tr := range traces {
		// Several engine models yield the same partition of a trace;
		// equal partitions encode to equal bytes, so each distinct one
		// is encoded and hashed once.
		type digest struct {
			p    *prune.Partition
			line string
		}
		var seen []digest
		for _, m := range models {
			p, err := prune.Compute(tr, prune.Options{Arenas: arenas, Model: m.m})
			if err != nil {
				t.Fatalf("%s/%s: %v", names[i], m.name, err)
			}
			k := slices.IndexFunc(seen, func(d digest) bool { return reflect.DeepEqual(d.p, p) })
			if k < 0 {
				enc := sha256.New()
				if err := p.Encode(enc); err != nil {
					t.Fatal(err)
				}
				seen = append(seen, digest{p, fmt.Sprintf("ops=%d classes=%d encode=%x hash=%016x",
					p.Ops, len(p.Classes), enc.Sum(nil), p.Hash())})
				k = len(seen) - 1
			}
			fmt.Fprintf(&b, "%s model=%s %s\n", names[i], m.name, seen[k].line)
		}
	}
	return b.Bytes()
}

// The partition wire golden: testdata/partitions.golden pins the Encode
// bytes and the Hash of every workload's partition under every engine
// model. Any change to the certificate encoding, the class structure or
// the row contents — including rows of one class overwritten by a later
// class sharing its buffer — shows up as drift here.
func TestPartitionGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "partitions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderPartitions(t)
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
			t.Fatalf("partition golden drift at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
