package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// TestBinReplayMatchesMaterialized pins the streaming hot path: for
// every workload, replaying a recorded binary trace file through the
// in-place BinReader cursor must produce a manifest byte-identical to
// replaying the same traces from memory. Any divergence — a decode bug,
// a scratch-op aliasing mistake, an event-ordering change from the
// pre-sizing — shows up as a manifest diff.
func TestBinReplayMatchesMaterialized(t *testing.T) {
	const cores = 2
	dir := t.TempDir()
	p := workloads.Params{Seed: 7, Items: 48, Ops: 10, OpsPerTx: 2, ComputeCycles: 50}.WithDefaults()
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".bin")
			if err := crash.RecordTraces(w, p, cores, path); err != nil {
				t.Fatal(err)
			}
			traces := crash.BuildTraces(w, p, cores)

			spec, err := machine.ByName("sca")
			if err != nil {
				t.Fatal(err)
			}
			spec.Cores = cores
			want, err := Run(spec, name, trace.Sources(traces), nil)
			if err != nil {
				t.Fatal(err)
			}

			readers, err := trace.ReadTracesFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec2, err := machine.ByName("sca")
			if err != nil {
				t.Fatal(err)
			}
			spec2.Cores = cores
			got, err := Run(spec2, name, trace.BinSources(readers), nil)
			if err != nil {
				t.Fatal(err)
			}

			var wb, gb bytes.Buffer
			if err := BuildManifest(want, p).Encode(&wb); err != nil {
				t.Fatal(err)
			}
			if err := BuildManifest(got, p).Encode(&gb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
				t.Errorf("binary-cursor replay manifest differs from materialized replay:\n--- materialized\n%s\n--- cursor\n%s",
					wb.String(), gb.String())
			}
		})
	}
}
