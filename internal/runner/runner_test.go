package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Results must come back in submission order for every worker count,
// including counts far above and below the job count.
func TestMapSubmissionOrder(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{0, 1, 3, 8, 200} {
		rs := Map(context.Background(), jobs, func(_ context.Context, j int) (int, error) {
			return j * j, nil
		}, Options{Workers: workers})
		if len(rs) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(rs), len(jobs))
		}
		for i, r := range rs {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, %v", workers, i, r.Value, r.Err)
			}
		}
	}
}

// Identical inputs must produce identical values regardless of the
// worker count — the property every figure's byte-identity rests on.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	jobs := []int{5, 3, 9, 1, 7, 2, 8}
	run := func(workers int) []int {
		vals, err := MapValues(context.Background(), jobs, func(_ context.Context, j int) (int, error) {
			return j * 1000, nil
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 16} {
		par := run(workers)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: value[%d] %d != sequential %d", workers, i, par[i], seq[i])
			}
		}
	}
}

// A panicking cell must become an error result carrying the cell label
// and a stack trace — not a dead process — and must not disturb its
// neighbors.
func TestMapPanicCapture(t *testing.T) {
	jobs := []int{0, 1, 2, 3}
	rs := Map(context.Background(), jobs, func(_ context.Context, j int) (int, error) {
		if j == 2 {
			panic("boom at cell 2")
		}
		return j, nil
	}, Options{Workers: 4, Label: func(i int) string { return fmt.Sprintf("grid/%d", i) }})

	for i, r := range rs {
		if i == 2 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("cell 2: error %v is not a PanicError", r.Err)
			}
			if pe.Label != "grid/2" || !strings.Contains(fmt.Sprint(pe.Value), "boom") {
				t.Errorf("panic error lost label/value: %v / %v", pe.Label, pe.Value)
			}
			if !strings.Contains(r.Err.Error(), "goroutine") {
				t.Error("panic error carries no stack trace")
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("cell %d disturbed by neighbor panic: %d, %v", i, r.Value, r.Err)
		}
	}
}

// Panics must also be captured on the no-watchdog fast path (no timeout,
// non-cancellable context) and on the watchdog path.
func TestMapPanicCaptureWithTimeout(t *testing.T) {
	rs := Map(context.Background(), []int{0}, func(_ context.Context, _ int) (int, error) {
		panic("late boom")
	}, Options{Timeout: time.Minute})
	var pe *PanicError
	if !errors.As(rs[0].Err, &pe) {
		t.Fatalf("watchdog path: %v is not a PanicError", rs[0].Err)
	}
}

// A cell exceeding the per-cell timeout yields an error result with the
// cell label; other cells complete normally.
func TestMapCellTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	rs := Map(context.Background(), []int{0, 1}, func(_ context.Context, j int) (int, error) {
		if j == 0 {
			<-block // never returns within the timeout
		}
		return j, nil
	}, Options{Workers: 2, Timeout: 20 * time.Millisecond,
		Label: func(i int) string { return fmt.Sprintf("slow/%d", i) }})

	if rs[0].Err == nil || !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("stuck cell error = %v, want deadline exceeded", rs[0].Err)
	}
	if !strings.Contains(rs[0].Err.Error(), "slow/0") {
		t.Errorf("timeout error %v does not name the cell", rs[0].Err)
	}
	if rs[1].Err != nil || rs[1].Value != 1 {
		t.Errorf("healthy cell affected: %d, %v", rs[1].Value, rs[1].Err)
	}
}

// Cancelling the context stops unstarted cells; their results carry the
// cancellation cause.
func TestMapCancellation(t *testing.T) {
	mappers := map[string]func(context.Context, []struct{}, func(context.Context, struct{}) (int, error)) []Result[int]{
		"Map": func(ctx context.Context, jobs []struct{}, fn func(context.Context, struct{}) (int, error)) []Result[int] {
			return Map(ctx, jobs, fn, Options{Workers: 1})
		},
		"MapRuns": func(ctx context.Context, jobs []struct{}, fn func(context.Context, struct{}) (int, error)) []Result[int] {
			return MapRuns(ctx, jobs, func() (int, error) { return 0, nil },
				func(ctx context.Context, _ int, j struct{}) (int, error) { return fn(ctx, j) },
				Options{Workers: 1})
		},
	}
	for name, mapper := range mappers {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		rs := mapper(ctx, make([]struct{}, 50), func(_ context.Context, _ struct{}) (int, error) {
			if started.Add(1) == 1 {
				cancel()
			}
			return 7, nil
		})

		var cancelled int
		for _, r := range rs {
			if errors.Is(r.Err, context.Canceled) {
				cancelled++
			}
		}
		// The cancelling cell itself may race its own completion against
		// the watchdog; every cell after it must be cancelled unstarted.
		if cancelled < len(rs)-int(started.Load()) {
			t.Errorf("%s: started %d, cancelled %d of %d cells; expected the rest cancelled",
				name, started.Load(), cancelled, len(rs))
		}
		cancel()
	}
}

// MapValues reports the first error in submission order — the same cell
// the sequential loop would have reported — not the first to complete.
func TestMapValuesFirstErrorInOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	jobs := []int{0, 1, 2, 3}
	for trial := 0; trial < 20; trial++ {
		_, err := MapValues(context.Background(), jobs, func(_ context.Context, j int) (int, error) {
			switch j {
			case 1:
				time.Sleep(time.Millisecond) // finish after cell 3's error
				return 0, errA
			case 3:
				return 0, errB
			}
			return j, nil
		}, Options{Workers: 4})
		if err != errA {
			t.Fatalf("trial %d: first error = %v, want %v (submission order)", trial, err, errA)
		}
	}
}

// The progress sink sees every cell exactly once, serialized.
func TestMapProgressSink(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]Progress{}
	jobs := make([]int, 30)
	Map(context.Background(), jobs, func(_ context.Context, _ int) (int, error) {
		return 0, nil
	}, Options{Workers: 4, OnDone: func(p Progress) {
		// OnDone calls are serialized by the pool; the mutex here only
		// pairs the test's own reads with the writes.
		mu.Lock()
		seen[p.Index] = p
		mu.Unlock()
	}})
	if len(seen) != len(jobs) {
		t.Fatalf("sink saw %d cells, want %d", len(seen), len(jobs))
	}
	for i, p := range seen {
		if p.Total != len(jobs) || p.Index != i {
			t.Fatalf("bad progress record %+v", p)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	rs := Map(context.Background(), nil, func(_ context.Context, _ struct{}) (int, error) {
		return 0, nil
	}, Options{})
	if len(rs) != 0 {
		t.Fatalf("%d results for no jobs", len(rs))
	}
}

// MapRuns keeps Map's per-job contract — results in job order, one
// progress record per job — while running each contiguous run of jobs
// in order over one lazily built state.
func TestMapRunsOrderAndSharedState(t *testing.T) {
	jobs := make([]int, 37)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var built atomic.Int32
		var mu sync.Mutex
		seen := map[int]bool{}
		rs := MapRuns(context.Background(), jobs,
			func() (*[]int, error) { built.Add(1); return new([]int), nil },
			func(_ context.Context, st *[]int, j int) (int, error) {
				if n := len(*st); n > 0 && (*st)[n-1] != j-1 {
					return 0, fmt.Errorf("job %d after job %d on one state", j, (*st)[n-1])
				}
				*st = append(*st, j)
				return j * j, nil
			},
			Options{Workers: workers, OnDone: func(p Progress) {
				mu.Lock()
				seen[p.Index] = true
				mu.Unlock()
			}})
		for i, r := range rs {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, %v", workers, i, r.Value, r.Err)
			}
		}
		limit := workers
		if limit <= 0 || limit > len(jobs) {
			limit = len(jobs)
		}
		if b := int(built.Load()); b < 1 || b > limit {
			t.Errorf("workers=%d: built %d states", workers, b)
		}
		if len(seen) != len(jobs) {
			t.Errorf("workers=%d: progress for %d of %d jobs", workers, len(seen), len(jobs))
		}
	}
}

// A job that errors or panics discards its run's state: the next job
// builds a fresh one, and a failed build is that job's error.
func TestMapRunsRebuildsAfterFailure(t *testing.T) {
	var builds atomic.Int32
	rs := MapRuns(context.Background(), []int{0, 1, 2, 3, 4, 5},
		func() (*int, error) {
			if builds.Add(1) == 3 {
				return nil, errors.New("build 3 fails")
			}
			return new(int), nil
		},
		func(_ context.Context, st *int, j int) (int, error) {
			*st++
			switch j {
			case 1:
				return 0, errors.New("job 1 fails")
			case 3:
				panic("job 3 panics")
			}
			return *st, nil
		},
		Options{Workers: 1, Label: func(i int) string { return fmt.Sprintf("run/%d", i) }})
	// Build 1 serves jobs 0–1, build 2 jobs 2–3, build 3 fails job 4,
	// and build 4 serves job 5.
	want := []struct {
		v   int
		err string
	}{{1, ""}, {0, "job 1 fails"}, {1, ""}, {0, "job 3 panics"}, {0, "build 3 fails"}, {1, ""}}
	var pe *PanicError
	if !errors.As(rs[3].Err, &pe) {
		t.Errorf("job 3: %v is not a PanicError", rs[3].Err)
	}
	for i, w := range want {
		r := rs[i]
		if r.Label != fmt.Sprintf("run/%d", i) {
			t.Errorf("job %d labelled %q", i, r.Label)
		}
		if (r.Err == nil) != (w.err == "") || (r.Err != nil && !strings.Contains(r.Err.Error(), w.err)) {
			t.Errorf("job %d: error %v, want %q", i, r.Err, w.err)
		}
		if r.Err == nil && r.Value != w.v {
			t.Errorf("job %d: value %d, want %d", i, r.Value, w.v)
		}
	}
}
