package enginecheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
)

// renderEngines renders everything the checker derives from a policy:
// each builtin's report and verifier model under its Table-2 default,
// and each mutant's report, model and findings, with the counterexample
// files (NewFile JSON, as persistcheck writes them) folded into one
// digest per mutant.
func renderEngines() []byte {
	var b bytes.Buffer
	model := func(e engines.Policy, cfg *config.Config) {
		j, _ := json.Marshal(NewFile(e.Name, Finding{}, ModelFor(e, cfg)).Model)
		fmt.Fprintf(&b, "  model %s\n", j)
	}
	for _, name := range engines.Names() {
		e, _ := engines.ByName(name)
		cfg := config.Default(e.Design)
		rep := Check(e, cfg)
		fmt.Fprintf(&b, "builtin %s programs=%d findings=%d\n", name, rep.Programs, len(rep.Findings))
		model(e, cfg)
	}
	for _, m := range Mutants() {
		name := m.Engine.Name
		rep := Check(m.Engine, nil)
		fmt.Fprintf(&b, "mutant %s programs=%d findings=%d\n", name, rep.Programs, len(rep.Findings))
		cfg := config.Default(m.Engine.Design)
		model(m.Engine, cfg)
		h := sha256.New()
		for _, f := range rep.Findings {
			fmt.Fprintf(&b, "  %s\n", f)
			j, _ := json.MarshalIndent(NewFile(name, f, ModelFor(m.Engine, cfg)), "", "  ")
			h.Write(j)
		}
		fmt.Fprintf(&b, "  files sha256 %x\n", h.Sum(nil))
	}
	return b.Bytes()
}

// The engine layer's differential golden: testdata/engines.golden was
// rendered from the per-design policy tables this package replaced, and
// every byte of it must still come out of the Policy values. It sees
// drift the rule-level tests cannot — e.g. a mutant's model gaining or
// losing treePathWithCounter while still being caught by the same rule.
func TestEngineGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "engines.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderEngines()
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
			t.Fatalf("engine golden drift at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
