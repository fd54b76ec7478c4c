// Campaigns: per-op crash-point sweeps driven by the static
// crash-equivalence partition (internal/check/prune), with optional
// pruning, class validation, and JSONL checkpointing for resume.
//
// # Crash-point space
//
// A campaign enumerates the per-op gaps of a single-core trace: gap k is
// a power failure after the first k ops retired and before op k+1 takes
// effect. One probe run with retire-time recording yields the deadline
// of every gap — t(0) = 0, t(k) = retire time of op k-1 — so the space
// has exactly ops+1 points, anchored to program structure rather than
// the legacy sweep's evenly-spaced wall-clock grid.
//
// # Layered pruning soundness
//
// The static partition proves abstract-state equality within a class,
// not concrete-image equality: timing-level events (delayed write-queue
// acceptance, counter evictions forced by reads) can change the device
// image between two gaps the verifier cannot distinguish. The campaign
// therefore refines every static class against the dynamic
// persist-epoch timeline recorded by the probe run: the memory
// controller reports an epoch at every instant the crash-visible state
// mutates (queue acceptance, counter eviction, device-write landing),
// so two deadlines with no epoch strictly-after the first and at-or-
// before the second bound identical crash images. Cells — classes split
// at epoch instants — are the unit a pruned campaign simulates; the
// representative's verdict is attributed to every gap in the cell.
// -validate-classes re-simulates sampled non-representative members and
// fails loudly if any diverges from its representative.
//
// # One pass per worker
//
// Cells tile the gap space in order and validation members lie inside
// their cell, so walking the cells in order visits deadlines in
// ascending order. Each worker takes a contiguous run of cells and one
// machine that replays the trace forward once, judging every deadline
// on the way from a read-only crash image (see the package comment).
package crash

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"

	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/prune"
	"encnvm/internal/config"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/runner"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Checkpoint and report schema tags.
const (
	CheckpointSchema = "encnvm/campaign-checkpoint/v1"
	ReportSchema     = "encnvm/campaign-report/v1"
)

// ErrCampaignHalted reports a campaign stopped by CampaignOptions.
// HaltAfter with its checkpoint intact — the kill half of the
// kill-and-resume tests, not a failure.
var ErrCampaignHalted = errors.New("crash: campaign halted; resume from its checkpoint")

// CampaignOptions configures one RunCampaign call.
type CampaignOptions struct {
	// Workers is the injection parallelism degree (<= 0: GOMAXPROCS).
	Workers int
	// Pruned simulates one representative per epoch-refined cell
	// instead of every gap.
	Pruned bool
	// ValidateMembers, when > 0, additionally simulates up to that many
	// distinct non-representative gaps per multi-gap cell and fails the
	// campaign if any verdict diverges from the representative's.
	ValidateMembers int
	// ValidateSeed seeds member sampling. Picks are a pure function of
	// (seed, cell index), so resuming needs no saved stream state.
	ValidateSeed int64
	// CheckpointPath, when non-empty, streams one JSONL record per
	// completed cell to this file. Without Resume the file is
	// truncated; with Resume it must exist and match the campaign's
	// fingerprint, and its completed cells are not re-simulated.
	CheckpointPath string
	// CheckpointEvery flushes the checkpoint stream after this many
	// newly-completed cells (<= 0: every cell).
	CheckpointEvery int
	// Resume loads CheckpointPath before running.
	Resume bool
	// HaltAfter, when > 0, cancels the campaign after this many
	// newly-simulated cells and returns ErrCampaignHalted — the
	// test hook for kill-and-resume.
	HaltAfter int
	// OnDone streams per-cell completion progress (runner.Options).
	OnDone func(runner.Progress)
}

// CellRecord is one campaign checkpoint line: the verdict of one
// epoch-refined cell, attributed to every gap in [Gaps[0], Gaps[1]).
// It carries everything needed to rebuild the cell's Report rows, so a
// resumed campaign reproduces the original report byte for byte.
type CellRecord struct {
	Cell  int    `json:"cell"`
	Class int    `json:"class"` // static class the cell refines
	Gaps  [2]int `json:"gaps"`  // half-open gap interval covered
	Rep   int    `json:"rep"`   // simulated representative gap
	// CrashAt is the simulated instant the representative injection
	// reached (its gap deadline).
	CrashAt          uint64       `json:"crash_at"`
	Consistent       bool         `json:"consistent"`
	Error            string       `json:"error,omitempty"`
	LostCounterLines int          `json:"lost_counter_lines"`
	RecoveredEntries int          `json:"recovered_entries"`
	CorruptLog       int          `json:"corrupt_log"`
	Osiris           RecoveryCost `json:"osiris"`
	// Validated counts the extra member gaps simulated for this cell;
	// all agreed with the representative (divergence aborts instead).
	Validated int `json:"validated"`
}

// CampaignViolation is one inconsistent cell in a campaign report,
// attributed to its whole gap interval.
type CampaignViolation struct {
	Cell    int    `json:"cell"`
	Class   int    `json:"class"`
	Points  [2]int `json:"points"` // gap interval the verdict covers
	CrashAt uint64 `json:"crash_at"`
	Error   string `json:"error"`
}

// CampaignReport is the schema-tagged summary a campaign run emits.
// Counting fields follow Report's convention: explicit zeros when a
// mode makes them trivial, so the wire shape is mode-independent.
type CampaignReport struct {
	Schema   string `json:"schema"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"` // ModeExhaustive or ModePruned
	Ops      int    `json:"ops"`
	// CrashPoints is the per-op gap count (ops+1).
	CrashPoints int `json:"crash_points"`
	// Classes is the static partition size; Cells counts classes after
	// epoch refinement — the unit simulated.
	Classes int `json:"classes"`
	Cells   int `json:"cells"`
	// Simulated counts injections run (cells plus validation members);
	// Pruned counts crash points covered without simulation.
	Simulated      int     `json:"simulated"`
	Validated      int     `json:"validated"`
	Pruned         int     `json:"pruned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	// ViolationPoints counts inconsistent crash points (cell verdicts
	// weighted by interval width).
	ViolationPoints int                 `json:"violation_points"`
	Violations      []CampaignViolation `json:"violations"`
	// WallMS is host wall-clock milliseconds, filled by the CLI layer
	// (the library is wall-clock-free for determinism); zero in tests
	// and byte-compares.
	WallMS int64 `json:"wall_ms"`
}

// CampaignRun is everything one RunCampaign call produced.
type CampaignRun struct {
	Report   Report
	Campaign CampaignReport
	// NewlySimulated counts cells simulated by this call — resumed
	// cells excluded — so tests can assert a resume skipped work.
	NewlySimulated int
	// ReplayEvents counts the simulation events the injecting machines
	// executed, at most Workers full replays of the trace.
	ReplayEvents uint64
}

// campaignHeader is the checkpoint's first JSONL record: the campaign
// fingerprint a resume must match. PartitionHash binds the static class
// structure, TimelineHash the probe run's deadlines and persist epochs;
// together they reject resuming against a different binary, spec,
// workload, or parameterization.
type campaignHeader struct {
	Schema          string         `json:"schema"`
	Spec            string         `json:"spec"`
	Design          string         `json:"design"`
	Workload        string         `json:"workload"`
	Mode            string         `json:"mode"`
	Seed            int64          `json:"seed"`
	Items           int            `json:"items"`
	Ops             int            `json:"ops"`
	OpsPerTx        int            `json:"ops_per_tx"`
	ComputeCycles   uint32         `json:"compute_cycles"`
	TxMode          persist.TxMode `json:"tx_mode"`
	Legacy          bool           `json:"legacy"`
	ValidateMembers int            `json:"validate_members"`
	ValidateSeed    int64          `json:"validate_seed"`
	Cells           int            `json:"cells"`
	PartitionHash   uint64         `json:"partition_hash"`
	TimelineHash    uint64         `json:"timeline_hash"`
}

// campaignCell is one epoch-refined unit of simulation covering the
// half-open gap interval [Lo, Hi).
type campaignCell struct {
	Index  int
	Class  int
	Lo, Hi int
	Rep    int
}

// RunCampaign sweeps the per-op crash-point space of one workload on
// one machine spec: probe the timing skeleton, compute the static
// partition and check its certificates, refine classes by persist
// epochs, then inject at each cell representative (plus sampled
// validation members). Campaigns are single-core: the per-op gap space
// of an interleaved multi-core run is not a total order.
func RunCampaign(spec *machine.Spec, w workloads.Workload, p workloads.Params,
	opts CampaignOptions) (*CampaignRun, error) {

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	if cfg.NumCores != 1 {
		return nil, fmt.Errorf("crash: campaigns are single-core; spec %q has %d cores",
			spec.Name, cfg.NumCores)
	}
	traces := BuildTraces(w, p, 1)

	// Probe run: record every op's retire deadline and every instant
	// the crash-visible state mutated. Start+Run (not System.Run) so
	// the post-run flush phase contributes no epochs — crashes never
	// happen after the final retire.
	pp := perf.Begin("campaign-probe")
	probe, err := replay.NewSpecSources(spec, trace.Sources(traces))
	if err != nil {
		pp.End()
		return nil, err
	}
	probe.RecordRetireTimes()
	var epochs []sim.Time
	probe.MC.SetPersistEpochSink(func(t sim.Time) {
		if n := len(epochs); n == 0 || epochs[n-1] != t {
			epochs = append(epochs, t)
		}
	})
	probe.Start()
	probe.Eng.Run()
	retire := probe.RetireTimes(0)
	pp.End()
	if len(retire) != traces[0].Len() {
		return nil, fmt.Errorf("crash: probe retired %d of %d ops", len(retire), traces[0].Len())
	}
	if probe.RuntimeSoFar() == 0 {
		return nil, fmt.Errorf("crash: empty run")
	}
	deadlines := make([]sim.Time, len(retire)+1)
	copy(deadlines[1:], retire) // deadlines[0] = 0: crash before any op

	// Static partition, self-checked: a campaign never trusts an
	// unverified class structure, even one it just computed.
	pc := perf.Begin("campaign-classes")
	popts := prune.Options{
		Arenas: []persist.Arena{persist.ArenaFor(0, DefaultArena)},
		Model:  enginecheck.ModelFor(probe.Meta, probe.Cfg),
	}
	part, err := prune.Compute(traces[0], popts)
	if err != nil {
		pc.End()
		return nil, err
	}
	if err := prune.Check(traces[0], part, popts); err != nil {
		pc.End()
		return nil, fmt.Errorf("crash: partition failed its own certificate check: %w", err)
	}
	cells := refineCells(part, deadlines, epochs, opts.Pruned)
	pc.End()

	mode := ModeExhaustive
	if opts.Pruned {
		mode = ModePruned
	}

	// The checkpoint header, and with it the partition hash, exists
	// only when a checkpoint is read or written.
	done := map[int]CellRecord{}
	var (
		ckf *os.File
		ckw *bufio.Writer
	)
	if opts.Resume && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("crash: resume needs a checkpoint path")
	}
	if opts.CheckpointPath != "" {
		header := campaignHeader{
			Schema:          CheckpointSchema,
			Spec:            spec.Name,
			Design:          cfg.Design.String(),
			Workload:        w.Name(),
			Mode:            mode,
			Seed:            p.Seed,
			Items:           p.Items,
			Ops:             p.Ops,
			OpsPerTx:        p.OpsPerTx,
			ComputeCycles:   p.ComputeCycles,
			TxMode:          p.TxMode,
			Legacy:          p.Legacy,
			ValidateMembers: opts.ValidateMembers,
			ValidateSeed:    opts.ValidateSeed,
			Cells:           len(cells),
			PartitionHash:   part.Hash(),
			TimelineHash:    timelineHash(deadlines, epochs),
		}
		flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if opts.Resume {
			if done, err = loadCheckpoint(opts.CheckpointPath, header); err != nil {
				return nil, err
			}
			flags = os.O_WRONLY | os.O_APPEND
		}
		ckf, err = os.OpenFile(opts.CheckpointPath, flags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("crash: checkpoint: %w", err)
		}
		defer ckf.Close()
		ckw = bufio.NewWriter(ckf)
		if !opts.Resume {
			if err := writeJSONL(ckw, header); err != nil {
				return nil, err
			}
			if err := ckw.Flush(); err != nil {
				return nil, fmt.Errorf("crash: checkpoint: %w", err)
			}
		}
	}

	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	var (
		mu         sync.Mutex
		ckErr      error
		sinceFlush int
		newly      int
		halted     bool
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cells in order are deadlines in order (see "One pass per worker").
	ps := perf.Begin("campaign-sweep")
	rs, events := walk(ctx, cells,
		func() (*replay.System, error) { return replay.NewSpecSources(spec, trace.Sources(traces)) }, w, traces,
		func(wk *walker, c campaignCell) (CellRecord, error) {
			if rec, ok := done[c.Index]; ok {
				return rec, nil // resumed: checkpointed by a previous run
			}
			res, err := wk.injectAt(deadlines[c.Rep])
			if err != nil {
				return CellRecord{}, err
			}
			rec := CellRecord{
				Cell:             c.Index,
				Class:            c.Class,
				Gaps:             [2]int{c.Lo, c.Hi},
				Rep:              c.Rep,
				CrashAt:          uint64(res.CrashAt),
				Consistent:       res.Consistent(),
				Error:            res.Error,
				LostCounterLines: res.LostCounterLines,
				RecoveredEntries: res.RecoveredEntries,
				CorruptLog:       res.CorruptLog,
				Osiris:           res.Osiris,
			}
			for _, g := range pickMembers(opts.ValidateSeed, c, opts.ValidateMembers) {
				mres, err := wk.injectAt(deadlines[g])
				if err != nil {
					return rec, err
				}
				if err := sameVerdict(res, mres); err != nil {
					return rec, fmt.Errorf(
						"crash: class %d cell %d: gap %d diverges from representative gap %d: %w",
						c.Class, c.Index, g, c.Rep, err)
				}
				rec.Validated++
			}
			mu.Lock()
			defer mu.Unlock()
			if ckw != nil && ckErr == nil {
				if err := writeJSONL(ckw, rec); err != nil {
					ckErr = err
				} else if sinceFlush++; sinceFlush >= every {
					sinceFlush = 0
					if err := ckw.Flush(); err != nil {
						ckErr = fmt.Errorf("crash: checkpoint: %w", err)
					}
				}
			}
			if newly++; opts.HaltAfter > 0 && newly >= opts.HaltAfter && !halted {
				halted = true
				cancel()
			}
			return rec, ckErr
		},
		runner.Options{Workers: opts.Workers, OnDone: opts.OnDone, Label: func(i int) string {
			c := cells[i]
			return fmt.Sprintf("campaign/%s/%s/cell%d[%d,%d)", spec.Name, w.Name(), i, c.Lo, c.Hi)
		}})
	ps.End()

	if ckw != nil {
		mu.Lock()
		if ckErr == nil {
			if err := ckw.Flush(); err != nil {
				ckErr = fmt.Errorf("crash: checkpoint: %w", err)
			}
		}
		err := ckErr
		mu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	recs := make([]CellRecord, len(cells))
	for i, r := range rs {
		if r.Err != nil {
			if halted && errors.Is(r.Err, context.Canceled) {
				continue // cell skipped by the halt, not failed
			}
			return nil, r.Err
		}
		recs[i] = r.Value
	}
	if halted {
		return nil, ErrCampaignHalted
	}
	run := buildRun(cfg.Design, w.Name(), mode, part.Classes, cells, recs, deadlines)
	run.NewlySimulated = newly
	run.ReplayEvents = events
	return run, nil
}

// refineCells splits every static class at the persist-epoch instants
// observed by the probe run. Gaps k and k+1 may merge only when no
// epoch e satisfies t(k) < e <= t(k+1): the crash-visible state did not
// mutate between the two deadlines, so the images are identical and the
// static certificate's abstract equality extends to concrete equality.
// Without pruning every gap is its own cell.
func refineCells(part *prune.Partition, deadlines, epochs []sim.Time, pruned bool) []campaignCell {
	var cells []campaignCell
	for _, cl := range part.Classes {
		lo := cl.Gaps[0]
		for k := cl.Gaps[0]; k+1 < cl.Gaps[1]; k++ {
			if !pruned || epochBetween(epochs, deadlines[k], deadlines[k+1]) {
				cells = append(cells, campaignCell{Index: len(cells), Class: cl.Index, Lo: lo, Hi: k + 1, Rep: lo})
				lo = k + 1
			}
		}
		cells = append(cells, campaignCell{Index: len(cells), Class: cl.Index, Lo: lo, Hi: cl.Gaps[1], Rep: lo})
	}
	return cells
}

// epochBetween reports whether any epoch e satisfies a < e <= b.
// epochs is sorted ascending (the sink records event times in order).
func epochBetween(epochs []sim.Time, a, b sim.Time) bool {
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i] > a })
	return i < len(epochs) && epochs[i] <= b
}

// timelineHash fingerprints the probe run's timing skeleton.
func timelineHash(deadlines, epochs []sim.Time) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(t sim.Time) {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(deadlines)))
	h.Write(buf[:])
	for _, t := range deadlines {
		put(t)
	}
	for _, t := range epochs {
		put(t)
	}
	return h.Sum64()
}

// splitmix64 is the standard 64-bit mixer — a tiny deterministic stream
// so member sampling depends on nothing but (seed, cell index); the
// simulator bans math/rand and wall-clock sources in library code.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pickMembers samples up to k distinct non-representative gaps of the
// cell, sorted ascending. Deterministic in (seed, cell index).
func pickMembers(seed int64, c campaignCell, k int) []int {
	width := c.Hi - c.Lo - 1 // members other than the representative
	if k <= 0 || width <= 0 {
		return nil
	}
	if k > width {
		k = width
	}
	state := uint64(seed) ^ (uint64(c.Index+1) * 0x9E3779B97F4A7C15)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for tries := 0; len(out) < k && tries < 16*(k+1); tries++ {
		g := c.Lo + 1 + int(splitmix64(&state)%uint64(width))
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Ints(out)
	return out
}

// sameVerdict compares a validation member's result to its
// representative's on every report-visible dimension.
func sameVerdict(rep, member Result) error {
	switch {
	case rep.Consistent() != member.Consistent():
		return fmt.Errorf("consistent %v vs %v", rep.Consistent(), member.Consistent())
	case rep.Error != member.Error:
		return fmt.Errorf("error %q vs %q", rep.Error, member.Error)
	case rep.LostCounterLines != member.LostCounterLines:
		return fmt.Errorf("lost counter lines %d vs %d", rep.LostCounterLines, member.LostCounterLines)
	case rep.RecoveredEntries != member.RecoveredEntries:
		return fmt.Errorf("recovered entries %d vs %d", rep.RecoveredEntries, member.RecoveredEntries)
	case rep.CorruptLog != member.CorruptLog:
		return fmt.Errorf("corrupt log entries %d vs %d", rep.CorruptLog, member.CorruptLog)
	case rep.Osiris != member.Osiris:
		return fmt.Errorf("recovery cost %+v vs %+v", rep.Osiris, member.Osiris)
	}
	return nil
}

// buildRun assembles the Report and CampaignReport from the complete
// cell-record set. Records alone determine the output, so a resumed
// campaign — mixing checkpointed and fresh records — reproduces the
// uninterrupted run's reports byte for byte (WallMS excluded; the CLI
// stamps it).
func buildRun(design config.Design, workload, mode string,
	classes []prune.Class, cells []campaignCell, recs []CellRecord,
	deadlines []sim.Time) *CampaignRun {

	points := len(deadlines)
	rep := Report{
		Design:      design,
		Workload:    workload,
		Mode:        mode,
		CrashPoints: points,
		Classes:     len(classes),
		Cells:       len(cells),
	}
	camp := CampaignReport{
		Schema:      ReportSchema,
		Design:      design.String(),
		Workload:    workload,
		Mode:        mode,
		Ops:         points - 1,
		CrashPoints: points,
		Classes:     len(classes),
		Cells:       len(cells),
		Violations:  []CampaignViolation{},
	}
	for i, c := range cells {
		r := recs[i]
		rep.Validated += r.Validated
		for g := c.Lo; g < c.Hi; g++ {
			rep.Results = append(rep.Results, Result{
				CrashAt:          deadlines[g],
				LostCounterLines: r.LostCounterLines,
				RecoveredEntries: r.RecoveredEntries,
				CorruptLog:       r.CorruptLog,
				Osiris:           r.Osiris,
				Error:            r.Error,
			})
		}
		if !r.Consistent {
			camp.Violations = append(camp.Violations, CampaignViolation{
				Cell:    r.Cell,
				Class:   r.Class,
				Points:  r.Gaps,
				CrashAt: r.CrashAt,
				Error:   r.Error,
			})
			camp.ViolationPoints += c.Hi - c.Lo
		}
	}
	rep.Simulated = len(cells) + rep.Validated
	rep.Pruned = points - len(cells)
	rep.PrunedFraction = float64(rep.Pruned) / float64(points)
	if mode == ModeExhaustive {
		// Exhaustive cells tile the gaps one-to-one; report the
		// convention's literal zeros rather than a computed 0/points.
		rep.Pruned, rep.PrunedFraction = 0, 0
	}
	camp.Simulated = rep.Simulated
	camp.Validated = rep.Validated
	camp.Pruned = rep.Pruned
	camp.PrunedFraction = rep.PrunedFraction
	return &CampaignRun{Report: rep, Campaign: camp}
}

// writeJSONL writes one compact JSON record and a newline.
func writeJSONL(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint stream, validates its header
// against the campaign fingerprint, and returns the completed cells.
func loadCheckpoint(path string, want campaignHeader) (map[int]CellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("crash: resume: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("crash: resume %s: %w", path, err)
		}
		return nil, fmt.Errorf("crash: resume %s: empty checkpoint", path)
	}
	var have campaignHeader
	if err := json.Unmarshal(sc.Bytes(), &have); err != nil {
		return nil, fmt.Errorf("crash: resume %s: header: %w", path, err)
	}
	if have != want {
		return nil, fmt.Errorf("crash: resume %s: checkpoint fingerprint mismatch: campaign is %+v, checkpoint holds %+v",
			path, want, have)
	}
	done := make(map[int]CellRecord)
	line := 1
	for sc.Scan() {
		line++
		var rec CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("crash: resume %s:%d: %w", path, line, err)
		}
		if rec.Cell < 0 || rec.Cell >= want.Cells {
			return nil, fmt.Errorf("crash: resume %s:%d: cell %d outside [0,%d)",
				path, line, rec.Cell, want.Cells)
		}
		done[rec.Cell] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("crash: resume %s: %w", path, err)
	}
	return done, nil
}
