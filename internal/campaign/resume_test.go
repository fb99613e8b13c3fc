package campaign

import (
	"bytes"
	"context"
	"testing"

	"dyntreecast/internal/campaign/cache"
)

func artifactBytes(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cancelAfterFirstCell returns an OnResult hook that cancels the run
// once every trial of some cell has been reported. That cell's batches
// have all run by then, so it lands in the cache whatever else the
// cancellation cuts short.
func cancelAfterFirstCell(trials int, cancel context.CancelFunc) func(TrialResult) {
	seen := make(map[string]int)
	return func(r TrialResult) {
		if r.Err != nil {
			return
		}
		if seen[r.Cell]++; seen[r.Cell] == trials {
			cancel()
		}
	}
}

// cachedCells returns the display keys of spec's cells that hold an
// entry in c.
func cachedCells(t *testing.T, spec Spec, c cache.Cache) map[string]bool {
	t.Helper()
	cells, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, cj := range cells {
		if _, ok, err := c.Get(cj.Key); err != nil {
			t.Fatal(err)
		} else if ok {
			out[cj.Cell] = true
		}
	}
	return out
}

// storedCompletedCells checks that the cache holds exactly the cells an
// interrupted run completed — at least one — and returns them.
func storedCompletedCells(t *testing.T, spec Spec, c cache.Cache, partial *Outcome) map[string]bool {
	t.Helper()
	stored := cachedCells(t, spec, c)
	if len(stored) == 0 {
		t.Fatal("cache empty after the cancel")
	}
	complete := 0
	for _, cell := range partial.Cells {
		if cell.Count == spec.Trials {
			complete++
			if !stored[cell.Cell] {
				t.Errorf("completed cell %s missing from the cache", cell.Cell)
			}
		}
	}
	if len(stored) != complete {
		t.Errorf("%d cells cached, %d completed", len(stored), complete)
	}
	return stored
}

// interruptAndResume is one kill-and-resume round over a shared
// directory cache: run spec at workers and cancel it once its first cell
// is complete, check that exactly the cells whose every trial succeeded
// were stored, then rerun the spec over the same cache at resumeWorkers
// and return the rerun's outcome.
func interruptAndResume(t *testing.T, spec Spec, workers, resumeWorkers int) *Outcome {
	t.Helper()
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, runErr := RunSpec(ctx, spec, Config{
		Workers:  workers,
		Cache:    dir,
		OnResult: cancelAfterFirstCell(spec.Trials, cancel),
	})
	if runErr == nil {
		t.Fatalf("workers=%d: interrupted run reported no error", workers)
	}
	// One worker stops right after the cell that triggered the cancel;
	// larger pools may finish the trials they already hold.
	if workers == 1 && partial.Completed == partial.Jobs {
		t.Fatalf("workers=%d: interruption not mid-run: %d/%d jobs", workers, partial.Completed, partial.Jobs)
	}
	stored := storedCompletedCells(t, spec, dir, partial)

	resumed, err := RunSpec(context.Background(), spec, Config{Workers: resumeWorkers, Cache: dir})
	if err != nil {
		t.Fatalf("workers=%d resume=%d: %v", workers, resumeWorkers, err)
	}
	if resumed.Executed+resumed.CacheHits != resumed.Jobs || resumed.CacheHits == 0 {
		t.Errorf("workers=%d resume=%d: executed %d + cache hits %d, want %d with hits > 0",
			workers, resumeWorkers, resumed.Executed, resumed.CacheHits, resumed.Jobs)
	}
	if resumed.CacheHits != len(stored)*spec.Trials {
		t.Errorf("workers=%d resume=%d: %d cache hits, want every trial of the %d stored cells",
			workers, resumeWorkers, resumed.CacheHits, len(stored))
	}
	return resumed
}

// TestKillAndResumeByteIdentity is the headline guarantee of the
// persistence layer: interrupt a campaign mid-run, rerun it over the
// same cell cache, and the resulting artifact is byte-identical to an
// uninterrupted run — for several worker counts on both sides.
func TestKillAndResumeByteIdentity(t *testing.T) {
	spec := detSpec()
	uninterrupted, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := artifactBytes(t, uninterrupted)

	for _, workers := range []int{1, 4} {
		for _, resumeWorkers := range []int{1, 3} {
			resumed := interruptAndResume(t, spec, workers, resumeWorkers)
			if got := artifactBytes(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("workers=%d resume=%d: resumed artifact differs from uninterrupted run",
					workers, resumeWorkers)
			}
		}
	}
}

func TestSpecHashSensitivity(t *testing.T) {
	base := detSpec()
	h := SpecHash(base)
	mutations := map[string]func(*Spec){
		"seed":   func(s *Spec) { s.Seed++ },
		"trials": func(s *Spec) { s.Trials++ },
		"goal":   func(s *Spec) { s.Goal = "gossip" },
		"ns":     func(s *Spec) { s.Ns = append(s.Ns, 99) },
	}
	for name, mutate := range mutations {
		spec := base
		mutate(&spec)
		if SpecHash(spec) == h {
			t.Errorf("hash insensitive to %s", name)
		}
	}
	if SpecHash(base) != h {
		t.Error("hash not stable")
	}
	// Presentation must not affect identity: the name and the two
	// spellings of the default goal hash alike.
	named := base
	named.Name = "renamed"
	if SpecHash(named) != h {
		t.Error("hash depends on the campaign name")
	}
	spelled := base
	spelled.Goal = "broadcast"
	if SpecHash(spelled) != h {
		t.Error(`hash distinguishes goal "" from "broadcast"`)
	}
}
