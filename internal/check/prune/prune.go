// Package prune promotes the crash-point equivalence classes the static
// verifier enumerates (internal/check/verify) into a first-class,
// certificate-carrying analysis artifact: a deterministic, schema-tagged
// partition of a trace's per-op crash points into classes, each with one
// representative point and a machine-checkable certificate — the
// abstract persisted/in-flight state that justifies merging the class.
//
// # Crash points and classes
//
// For a trace of N ops, the per-op crash-point space is the N+1 "gaps":
// gap k is a power failure after the first k ops have retired and before
// op k takes effect (gap 0 precedes everything; gap N follows the whole
// trace). The verifier's abstract interpretation opens a new class only
// at ops that can change the reachable persisted-image set
// (Write/Clwb/CCWB/Sfence); every other op leaves the abstract state —
// the per-line persist-set facts — untouched, so the gaps between two
// consecutive class-opening ops all observe the same abstract state.
// That shared state is the class's certificate.
//
// # Certificates and checking
//
// The certificate is exactly what the invariants V1–V4 can observe
// (verify.ClassState): per-line data/counter facts, the epoch ordinal,
// transaction and log-seal context. Check re-runs the abstract
// interpreter over the trace and structurally compares every certificate
// and every gap range, so a consumer holding only the partition file can
// confirm it against the trace without trusting its producer.
//
// Both cost one interpreter pass and write each certificate row once,
// with no sort: the verifier emits every class's rows, already in
// address order, into one reused buffer; Compute copies them into a
// chunked slab, and Check compares them against the partition as they
// stream past, without building a second partition.
//
// # What the certificate does and does not prove
//
// Classes certify equality of the ABSTRACT state: crash points in one
// class are indistinguishable to the verifier's invariants. They do not
// by themselves certify equality of the concrete simulated crash image —
// timing-level events (delayed write-queue acceptance, counter-cache
// evictions triggered by reads) can change the device image inside one
// static class. The crash campaign (internal/crash) therefore refines
// each class against the dynamic persist-epoch timeline before pruning;
// see DESIGN.md "Crash-point pruning" for the layered soundness
// argument.
package prune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"encnvm/internal/check/verify"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Schema tags the partition wire format.
const Schema = "encnvm/crash-classes/v1"

// Options configures one partition computation. The fields mirror
// verify.Options: the partition must be computed under the same log
// classifier and engine model the verification ran under, or Check will
// reject it.
type Options struct {
	// Arenas locates per-core log regions (log-seal detection).
	Arenas []persist.Arena
	// IsLog overrides the classifier derived from Arenas.
	IsLog func(addr mem.Addr) bool
	// Model selects engine-dependent persistence semantics (nil: the
	// default SCA-style model). The model changes the facts inside
	// certificates, never the class boundaries — classes open at
	// Write/Clwb/CCWB/Sfence ops regardless of engine.
	Model *verify.Model
}

// Class is one crash-point equivalence class.
type Class struct {
	// Index is the class ordinal, dense from 0 in trace order.
	Index int `json:"class"`
	// OpIndex is the class-opening op (-1 for the initial class).
	OpIndex int `json:"op"`
	// Boundary is the opening op's kind ("start" for the initial class).
	Boundary string `json:"boundary"`
	// Gaps is the half-open interval [lo, hi) of crash gaps the class
	// covers: gap k crashes after the first k ops.
	Gaps [2]int `json:"gaps"`
	// Representative is the gap a pruned campaign simulates for the
	// whole class — always the first gap of the interval.
	Representative int `json:"rep"`
	// Cert is the machine-checkable certificate: the abstract state
	// every gap in the class observes.
	Cert verify.ClassState `json:"cert"`
}

// Size returns the number of crash gaps the class covers.
func (c Class) Size() int { return c.Gaps[1] - c.Gaps[0] }

// Partition is the full analysis artifact for one trace.
type Partition struct {
	Schema  string  `json:"schema"`
	Ops     int     `json:"ops"`  // trace length
	Gaps    int     `json:"gaps"` // crash points covered (== ops+1)
	Classes []Class `json:"classes"`
}

// slabRows bounds the row slab chunk Compute copies certificates into:
// chunks double from a small first one up to this many rows, so a tiny
// trace allocates little and a long one allocates a few large chunks.
const slabRows = 1 << 16

// verifyOptions runs the verifier under opts' classifier and model,
// handing every class certificate to onClass.
func verifyOptions(opts Options, onClass func(verify.ClassState)) verify.Options {
	return verify.Options{Arenas: opts.Arenas, IsLog: opts.IsLog, Model: opts.Model, OnClass: onClass}
}

// v0 returns the structural-validity error of a verification, if any.
func v0(res verify.Result) error {
	for _, v := range res.Violations {
		if v.Inv == "V0" {
			return fmt.Errorf("prune: %s", v.Message)
		}
	}
	return nil
}

// Compute partitions tr's crash points by running the static verifier's
// abstract interpretation and capturing one certificate per class. The
// result is deterministic: same trace and options, byte-identical
// partition. A structurally invalid trace (verify's V0) is rejected —
// its class enumeration cannot be trusted. Other violations do NOT fail
// the partition: a buggy protocol still has a well-defined crash-point
// space, and campaigns exist to observe exactly those failures.
//
// Each class's rows, borrowed from the verifier, are copied once into a
// chunked slab; every certificate holds a full-slice-expression view of
// its own rows, so appending to one never overwrites a neighbour.
func Compute(tr trace.Source, opts Options) (*Partition, error) {
	p := &Partition{Schema: Schema, Ops: tr.Len(), Gaps: tr.Len() + 1}
	var slab []verify.LineFact
	res := verify.Verify(tr, verifyOptions(opts, func(st verify.ClassState) {
		if n := len(st.Lines); n > 0 {
			if cap(slab)-len(slab) < n {
				slab = make([]verify.LineFact, 0, max(n, min(2*cap(slab), slabRows), 64))
			}
			at := len(slab)
			slab = append(slab, st.Lines...)
			st.Lines = slab[at:len(slab):len(slab)]
		}
		lo := st.OpIndex + 1
		p.Classes = append(p.Classes, Class{
			Index:          len(p.Classes),
			OpIndex:        st.OpIndex,
			Boundary:       st.Boundary,
			Gaps:           [2]int{lo, p.Gaps},
			Representative: lo,
			Cert:           st,
		})
	}))
	if err := v0(res); err != nil {
		return nil, err
	}
	if len(p.Classes) != res.Classes {
		return nil, fmt.Errorf("prune: %d certificates for %d classes", len(p.Classes), res.Classes)
	}
	for j := 1; j < len(p.Classes); j++ {
		p.Classes[j-1].Gaps[1] = p.Classes[j].Gaps[0]
	}
	return p, nil
}

// Check verifies a partition against its trace: the schema tag, the gap
// tiling (classes cover [0, ops+1) contiguously with in-range
// representatives), and — by re-running the abstract interpretation —
// every certificate. A partition that passes Check is exactly what
// Compute would produce for (tr, opts), up to the choice of in-range
// representatives; a consumer need not trust the file it decoded.
//
// The recomputation builds no second partition: each class the verifier
// emits is compared, field by field and row by row, against the class
// of the same index as it streams past.
func Check(tr trace.Source, p *Partition, opts Options) error {
	if p.Schema != Schema {
		return fmt.Errorf("prune: schema %q, want %q", p.Schema, Schema)
	}
	if p.Ops != tr.Len() || p.Gaps != tr.Len()+1 {
		return fmt.Errorf("prune: partition for %d ops / %d gaps, trace has %d ops",
			p.Ops, p.Gaps, tr.Len())
	}
	next := 0
	for i, c := range p.Classes {
		if c.Index != i {
			return fmt.Errorf("prune: class %d carries index %d", i, c.Index)
		}
		if c.Gaps[0] != next || c.Gaps[1] <= c.Gaps[0] {
			return fmt.Errorf("prune: class %d covers [%d,%d), want start at %d",
				i, c.Gaps[0], c.Gaps[1], next)
		}
		if c.Representative < c.Gaps[0] || c.Representative >= c.Gaps[1] {
			return fmt.Errorf("prune: class %d representative %d outside [%d,%d)",
				i, c.Representative, c.Gaps[0], c.Gaps[1])
		}
		next = c.Gaps[1]
	}
	if next != p.Gaps {
		return fmt.Errorf("prune: classes cover %d gaps, trace has %d", next, p.Gaps)
	}
	// The tiling is contiguous and ends at ops+1, so each class's end
	// is its successor's start: comparing every start against the
	// recomputed opening op pins both ends of every interval.
	var (
		n        int
		mismatch error
	)
	res := verify.Verify(tr, verifyOptions(opts, func(st verify.ClassState) {
		if mismatch == nil && n < len(p.Classes) {
			if d := diffClass(&p.Classes[n], &st); d != "" {
				mismatch = fmt.Errorf("prune: class %d certificate does not match the trace: %s", n, d)
			}
		}
		n++
	}))
	if err := v0(res); err != nil {
		return err
	}
	if n != len(p.Classes) {
		return fmt.Errorf("prune: %d classes, recomputation finds %d", len(p.Classes), n)
	}
	return mismatch
}

// diffClass names the first field in which class c differs from the
// recomputed certificate st, or returns "" when they agree. Index and
// the interval end are pinned by Check's tiling pass; the
// representative may be any gap of the interval.
func diffClass(c *Class, st *verify.ClassState) string {
	g := &c.Cert
	switch {
	case c.OpIndex != st.OpIndex:
		return fmt.Sprintf("OpIndex %d, want %d", c.OpIndex, st.OpIndex)
	case c.Boundary != st.Boundary:
		return fmt.Sprintf("Boundary %q, want %q", c.Boundary, st.Boundary)
	case c.Gaps[0] != st.OpIndex+1:
		return fmt.Sprintf("Gaps start at %d, want %d", c.Gaps[0], st.OpIndex+1)
	case g.Index != st.Index:
		return fmt.Sprintf("Cert.Index %d, want %d", g.Index, st.Index)
	case g.OpIndex != st.OpIndex:
		return fmt.Sprintf("Cert.OpIndex %d, want %d", g.OpIndex, st.OpIndex)
	case g.Boundary != st.Boundary:
		return fmt.Sprintf("Cert.Boundary %q, want %q", g.Boundary, st.Boundary)
	case g.Epoch != st.Epoch:
		return fmt.Sprintf("Cert.Epoch %d, want %d", g.Epoch, st.Epoch)
	case g.InTx != st.InTx:
		return fmt.Sprintf("Cert.InTx %t, want %t", g.InTx, st.InTx)
	case g.SealOpen != st.SealOpen:
		return fmt.Sprintf("Cert.SealOpen %t, want %t", g.SealOpen, st.SealOpen)
	case g.SealAddr != st.SealAddr:
		return fmt.Sprintf("Cert.SealAddr %#x, want %#x", g.SealAddr, st.SealAddr)
	case g.SealAt != st.SealAt:
		return fmt.Sprintf("Cert.SealAt %d, want %d", g.SealAt, st.SealAt)
	case slices.Equal(g.Lines, st.Lines):
		return ""
	}
	for k := range max(len(g.Lines), len(st.Lines)) {
		switch {
		case k >= len(g.Lines):
			return fmt.Sprintf("row %d missing, want %+v", k, st.Lines[k])
		case k >= len(st.Lines):
			return fmt.Sprintf("row %d (line %#x) extra: %+v", k, g.Lines[k].Addr, g.Lines[k])
		case g.Lines[k] != st.Lines[k]:
			return fmt.Sprintf("row %d (line %#x): got %+v, want %+v", k, st.Lines[k].Addr, g.Lines[k], st.Lines[k])
		}
	}
	return ""
}

// Hash fingerprints the partition (FNV-1a over its canonical encoding)
// for binding campaign checkpoints to the exact class structure.
func (p *Partition) Hash() uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	if err := enc.Encode(p); err != nil {
		panic("prune: unencodable partition: " + err.Error())
	}
	return h.Sum64()
}

// Encode writes the partition as indented, schema-tagged JSON.
func (p *Partition) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Decode reads a partition written by Encode. The caller should Check it
// against the trace before relying on it.
func Decode(r io.Reader) (*Partition, error) {
	var p Partition
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("prune: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("prune: decode: trailing data after the partition")
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("prune: schema %q, want %q", p.Schema, Schema)
	}
	return &p, nil
}
