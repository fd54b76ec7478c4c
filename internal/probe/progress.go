package probe

import (
	"encoding/json"
	"io"
	"time"

	"encnvm/internal/runner"
)

// ProgressRecord is the decode-side union of the two record shapes in a
// runner-progress JSONL stream: per-cell records (Cell set, Summary
// false) and the single terminal summary record (Summary true, fleet
// totals in Cells/OK/Failed) that makes a stream self-describing — a
// consumer can tell a complete stream from one truncated by a crash.
type ProgressRecord struct {
	// Per-cell fields.
	Cell   string  `json:"cell"`
	Index  int     `json:"index"`
	Total  int     `json:"total"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"err"`

	// Summary fields.
	Summary bool `json:"summary"`
	Cells   int  `json:"cells"`
	OK      int  `json:"ok"`
	Failed  int  `json:"failed"`
}

// ProgressWriter streams runner progress as JSONL: one record per
// completed cell, then — on Close — a terminal summary record with the
// fleet totals and the wall-clock span since the writer was created.
//
// Unlike every other probe output, these records carry *wall-clock*
// durations: they are operational telemetry about the experiment run
// itself (how long each cell took on this machine, which cells failed),
// not simulated results. They therefore belong on stderr or in a side
// file; the figure stdout stays simulated-time-only. The runner
// serializes sink calls, so no locking is needed here.
type ProgressWriter struct {
	enc    *json.Encoder
	start  time.Time
	cells  int
	failed int
}

// NewProgress returns a progress writer appending to w.
func NewProgress(w io.Writer) *ProgressWriter {
	return &ProgressWriter{enc: json.NewEncoder(w), start: time.Now()}
}

// OnDone is the sink for runner.Options.OnDone.
func (pw *ProgressWriter) OnDone(p runner.Progress) {
	rec := struct {
		Cell   string  `json:"cell"`
		Index  int     `json:"index"`
		Total  int     `json:"total"`
		WallMS float64 `json:"wall_ms"`
		Err    string  `json:"err,omitempty"`
	}{
		Cell:   p.Label,
		Index:  p.Index,
		Total:  p.Total,
		WallMS: float64(p.Wall) / float64(time.Millisecond),
	}
	if p.Err != nil {
		rec.Err = p.Err.Error()
		pw.failed++
	}
	pw.cells++
	// A progress write failure must not abort the fan-out; the cells'
	// results are still collected and reported.
	_ = pw.enc.Encode(rec)
}

// Close emits the terminal summary record. The writer must not be used
// afterwards.
func (pw *ProgressWriter) Close() error {
	rec := struct {
		Summary bool    `json:"summary"`
		Cells   int     `json:"cells"`
		OK      int     `json:"ok"`
		Failed  int     `json:"failed"`
		WallMS  float64 `json:"wall_ms"`
	}{
		Summary: true,
		Cells:   pw.cells,
		OK:      pw.cells - pw.failed,
		Failed:  pw.failed,
		WallMS:  float64(time.Since(pw.start)) / float64(time.Millisecond),
	}
	return pw.enc.Encode(rec)
}
