package crash

import (
	"testing"

	"encnvm/internal/machine"
)

// A machine whose data region ends before the last core's arena must be
// rejected before anything runs: its arenas would sit over the counter
// region, which recovery never decrypts.
func TestCheckArenas(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{`{"engine":"sca","memory_bytes":4096}`, false},
		{`{"engine":"bmt","memory_bytes":1}`, false},
		{`{"engine":"osiris","memory_bytes":1048576}`, false},
		{`{"engine":"sca"}`, true},
		{`{"engine":"sca","cores":8}`, true},
		// 75497472 = DefaultArena/8*9 is the smallest module whose data
		// region (total/9*8) holds one arena.
		{`{"engine":"sca","memory_bytes":75497472}`, true},
		{`{"engine":"sca","memory_bytes":75497471}`, false},
		{`{"engine":"sca","cores":2,"memory_bytes":75497472}`, false},
	}
	for _, c := range cases {
		spec, err := machine.DecodeSpecBytes([]byte(c.spec))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		err = CheckArenas(cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckArenas = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}
