package prune_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"encnvm/internal/check/prune"
	"encnvm/internal/check/verify"
	"encnvm/internal/crash"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// rbtree returns the golden rbtree trace, its partition and the options
// it was computed under.
func rbtree(t *testing.T) (*trace.Trace, *prune.Partition, prune.Options) {
	t.Helper()
	names, traces := goldenTraces()
	i := slices.Index(names, "rbtree")
	if i < 0 {
		t.Fatal("no rbtree workload")
	}
	opts := prune.Options{Arenas: []persist.Arena{persist.ArenaFor(0, crash.DefaultArena)}}
	p, err := prune.Compute(traces[i], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := prune.Check(traces[i], p, opts); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	return traces[i], p, opts
}

// cloneAt copies p deeply enough that class k, its rows included, can be
// mutated without touching p.
func cloneAt(p *prune.Partition, k int) *prune.Partition {
	q := *p
	q.Classes = slices.Clone(p.Classes)
	q.Classes[k].Cert.Lines = slices.Clone(p.Classes[k].Cert.Lines)
	return &q
}

// leaves visits every scalar field under v, in declaration order: struct
// fields, array elements, and the fields of a slice's middle element.
// It stops early when visit returns false.
func leaves(v reflect.Value, path string, visit func(string, reflect.Value) bool) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if !leaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := range v.Len() {
			if !leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if v.Len() == 0 {
			return true
		}
		return leaves(v.Index(v.Len()/2), path+"[mid]", visit)
	default:
		return visit(path, v)
	}
}

// tamper changes one scalar so that no valid certificate can hold it:
// numbers move far out of every range the trace can produce.
func tamper(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1<<20)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1<<20)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no tampering for kind %s; extend this test", path, v.Kind())
	}
}

// Every field of prune.Class, verify.ClassState and verify.LineFact is
// tampered with, one at a time, in one mid-trace class of a real rbtree
// partition, and Check must reject each result. A field added to any
// of the three types but left out of Check's typed comparison fails
// here.
func TestCheckComparesEveryField(t *testing.T) {
	tr, p, opts := rbtree(t)
	mid := len(p.Classes) / 2
	for mid < len(p.Classes) && len(p.Classes[mid].Cert.Lines) == 0 {
		mid++
	}
	if mid == len(p.Classes) {
		t.Fatal("no mid-trace class with rows")
	}
	var paths []string
	leaves(reflect.ValueOf(p.Classes[mid]), "Class", func(path string, _ reflect.Value) bool {
		paths = append(paths, path)
		return true
	})
	for _, want := range []string{"Class.Representative", "Class.Cert.SealAt", "Class.Cert.Lines[mid].Counter"} {
		if !slices.Contains(paths, want) {
			t.Fatalf("field walk missed %s: %v", want, paths)
		}
	}
	for k, path := range paths {
		q := cloneAt(p, mid)
		n := 0
		leaves(reflect.ValueOf(&q.Classes[mid]).Elem(), "Class", func(path string, v reflect.Value) bool {
			if n == k {
				tamper(t, path, v)
				return false
			}
			n++
			return true
		})
		if err := prune.Check(tr, q, opts); err == nil {
			t.Errorf("tampered %s accepted", path)
		}
	}

	rows := func(name string, mut func(c *prune.Class)) {
		q := cloneAt(p, mid)
		mut(&q.Classes[mid])
		if err := prune.Check(tr, q, opts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	rows("dropped row", func(c *prune.Class) { c.Cert.Lines = c.Cert.Lines[:len(c.Cert.Lines)-1] })
	rows("extra row", func(c *prune.Class) { c.Cert.Lines = append(c.Cert.Lines, c.Cert.Lines[0]) })
	rows("no rows", func(c *prune.Class) { c.Cert.Lines = nil })
}

// An extra or a missing class, on an otherwise valid tiling, is a class
// count mismatch; a V0 trace has no class structure to check against.
func TestCheckRejectsClassCount(t *testing.T) {
	tr, p, opts := rbtree(t)
	reindex := func(q *prune.Partition) {
		for i := range q.Classes {
			q.Classes[i].Index = i
		}
	}
	k := slices.IndexFunc(p.Classes, func(c prune.Class) bool { return c.Size() >= 2 })
	if k < 0 {
		t.Fatal("no class covers two gaps")
	}
	extra := cloneAt(p, k)
	c := extra.Classes[k]
	split := c
	split.Gaps[0]++
	split.Representative = split.Gaps[0]
	extra.Classes[k].Gaps[1] = split.Gaps[0]
	extra.Classes = slices.Insert(extra.Classes, k+1, split)
	reindex(extra)

	mid := len(p.Classes) / 2
	missing := cloneAt(p, mid)
	missing.Classes[mid-1].Gaps[1] = missing.Classes[mid].Gaps[1]
	missing.Classes = slices.Delete(missing.Classes, mid, mid+1)
	reindex(missing)

	for name, q := range map[string]*prune.Partition{"extra": extra, "missing": missing} {
		err := prune.Check(tr, q, opts)
		if err == nil || !strings.Contains(err.Error(), "recomputation finds") {
			t.Errorf("%s class: err = %v, want a class count mismatch", name, err)
		}
	}

	bad := mkTrace(txb(), txb(), txe(), txe())
	v0 := &prune.Partition{Schema: prune.Schema, Ops: bad.Len(), Gaps: bad.Len() + 1,
		Classes: []prune.Class{{OpIndex: -1, Boundary: "start", Gaps: [2]int{0, bad.Len() + 1}}}}
	if err := prune.Check(bad, v0, popts()); err == nil || !strings.Contains(err.Error(), "invalid trace") {
		t.Errorf("V0 trace: err = %v, want the invalid-trace error", err)
	}
}

// A certificate mismatch names the first differing field, or the first
// differing row with its line address, instead of printing both whole
// classes.
func TestCheckMismatchErrorIsShort(t *testing.T) {
	tr, p, opts := rbtree(t)
	mid := len(p.Classes) / 2
	last := len(p.Classes[mid].Cert.Lines) - 1
	for _, tc := range []struct {
		name string
		mut  func(c *prune.Class)
		want []string
	}{
		{"epoch", func(c *prune.Class) { c.Cert.Epoch++ }, []string{"Cert.Epoch"}},
		{"row", func(c *prune.Class) { c.Cert.Lines[last].StoredAt++ },
			[]string{fmt.Sprintf("line %#x", p.Classes[mid].Cert.Lines[last].Addr), "got ", "want "}},
	} {
		q := cloneAt(p, mid)
		tc.mut(&q.Classes[mid])
		err := prune.Check(tr, q, opts)
		if err == nil {
			t.Fatalf("%s: tampered class accepted", tc.name)
		}
		msg := err.Error()
		prefix := fmt.Sprintf("prune: class %d certificate does not match the trace", mid)
		if !strings.HasPrefix(msg, prefix) || len(msg) > 400 {
			t.Errorf("%s: %d-byte error %q, want a short one starting %q", tc.name, len(msg), msg, prefix)
		}
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: error %q does not name %q", tc.name, msg, w)
			}
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := mustCompute(t, mkTrace(wr(lineA), clwb(lineA), fence())).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"valid", valid, true},
		{"trailing whitespace", valid + "\n\t \n", true},
		{"trailing garbage", valid + "garbage{", false},
		{"second value", valid + valid, false},
		{"trailing object", valid + "{}", false},
		{"empty", "", false},
	} {
		_, err := prune.Decode(strings.NewReader(tc.in))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.HasPrefix(err.Error(), "prune: decode:")):
			t.Errorf("%s: err = %v, want a prune: decode: error", tc.name, err)
		}
	}
}

// Arbitrary bytes, decoded and checked against a fixed small trace, must
// never panic Check: a partition file is untrusted input.
func FuzzCheckPartition(f *testing.F) {
	tr := mkTrace(txb(), wr(lineA), rd(lineB), clwb(lineA), ccwb(lineA), fence(), txe(), wr(lineC))
	p, err := prune.Compute(tr, popts())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"encnvm/crash-classes/v1","ops":8,"gaps":9,"classes":[{"class":0,"op":-1,"gaps":[0,9],"rep":0}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := prune.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = prune.Check(tr, q, popts())
	})
}

// Certificates share one row slab, but each holds a full-slice view of
// its own rows: appending to one class's rows never overwrites the next
// class's.
func TestCertificateRowsAreIsolated(t *testing.T) {
	tr := mkTrace(wr(lineA), wr(lineB), wr(lineC))
	p := mustCompute(t, tr)
	rows := p.Classes[1].Cert.Lines
	_ = append(rows, verify.LineFact{Addr: 1})
	if err := prune.Check(tr, p, popts()); err != nil {
		t.Fatalf("append to one certificate's rows changed another: %v", err)
	}
}
