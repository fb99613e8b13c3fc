// Package campaign is the parallel experiment orchestrator: it compiles a
// declarative sweep specification (scenarios × n × trials × goal) into a
// flat list of jobs with deterministically pre-split random sources, and
// executes them on a context-cancellable worker pool sized to GOMAXPROCS.
//
// Jobs are scheduled as cell batches (DESIGN.md §3d): consecutive trials
// of one grid cell run sequentially on one worker, against the worker's
// Arena — a pooled core.Runner plus a per-cell reusable adversary — so
// the steady-state trial loop allocates nothing. Run caps a batch at
// ⌈pending jobs / workers⌉: grids with at least as many cells as workers
// run whole cells, and a single big cell is split evenly across the pool.
// The split never changes an output byte.
//
// Scenarios name adversary families from an open registry (scenario.go,
// DESIGN.md §3c): each family self-describes its parameters — names,
// kinds, defaults, per-n feasibility — and Register lets downstream code
// plug custom families into specs, caching, and the campaignd daemon.
// The scenario form is the only spec schema; the retired adversaries/ks
// form is rejected with an error that names it.
//
// The hard invariant of the package is bit-identical output: for a fixed
// Spec (including its seed), the aggregated Outcome is the same regardless
// of the worker count and of goroutine scheduling. Two mechanisms enforce
// it:
//
//   - Every job owns a private rng.Source, pre-split at compile time.
//     Spec.Compile derives each grid cell's streams content-addressed —
//     from a hash of the campaign seed and the cell's own coordinates —
//     and splits per-trial sources serially in trial order, so a cell's
//     results do not even depend on what else the grid contains. Workers
//     never share a generator, so execution order cannot perturb any
//     stream.
//   - Results land in a slice indexed by job index (disjoint writes, no
//     locks), and aggregation walks that slice in index order. Scheduling
//     can reorder execution but never observation.
//
// On top of the runner sits the campaign service layer (DESIGN.md §3b):
// the content-addressed cell cache (Config.Cache, backed by the cache
// subpackage) is the package's one persistence path. RunSpec stores every
// fully successful cell as soon as its last trial lands, so overlapping
// grids reuse previously computed cells and an interrupted campaign —
// cancelled or killed outright — resumes by rerunning it over the same
// cache, to a byte-identical artifact. Both are sound only because of the
// determinism contract above.
//
// RunSpec is the one execution path for trials: the experiment package
// and cmd/broadcast-sim build scenario specs, the cmd/campaign binary
// drives RunSpec from a JSON spec or flags, cmd/campaignd serves
// campaigns over HTTP via internal/server, and the root dyntreecast
// package re-exports Spec/RunSpec as Campaign/RunCampaign. Run executes
// compiled jobs; ExecuteCellJob runs a leased shard on it.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
)

// Measurement is one named scalar produced by a job. Every trial of a
// spec emits exactly one: its round count, labeled with its cell. Cell
// entries (DecodeCellEntry) store only the counts, with the label once in
// the entry's header, so a trial that is not exactly one integer
// measurement of its cell cannot be cached or pushed.
type Measurement struct {
	Cell  string  `json:"cell"`  // aggregation key; jobs sharing a cell are pooled
	Value float64 `json:"value"` // the observed quantity (usually a round count)
}

// Job is one unit of work: typically a single simulated run of one grid
// point. Jobs are created in a deterministic compile order and each owns a
// pre-split random source, so any worker may execute any job without
// affecting results.
//
// The pool schedules jobs in cell batches: consecutive jobs sharing a
// Cell run sequentially on one worker, whose Arena — a pooled
// core.Runner plus a per-cell reusable adversary — they share. Because
// every job still owns its pre-split source and results are observed in
// index order, batching is invisible in the output: artifacts are
// byte-identical for every worker count.
type Job struct {
	Index int         // position in compile order; doubles as the result slot
	Cell  string      // aggregation cell (set by Spec.Compile)
	Src   *rng.Source // private generator, pre-split at compile time
	// Run executes the job from src on the worker's Arena.
	Run func(ctx context.Context, src *rng.Source, a *Arena) ([]Measurement, error)
}

// ReusableAdversary is the adversary contract of the campaign pipeline:
// an adversary whose per-n scratch (tree buffers, bitset rows) persists
// across the trials of a cell. Reset rebinds it to a fresh trial's
// random source; after Reset it must behave exactly as a freshly
// constructed adversary would — same draws, same trees — so artifacts do
// not depend on which trials shared it. The adversary package's stock
// adversaries implement it.
type ReusableAdversary interface {
	core.Adversary
	// Reset prepares the adversary to drive a fresh run from src (which
	// may be nil for source-free adversaries).
	Reset(src *rng.Source)
}

// Arena is the reusable execution state one worker owns for its whole
// lifetime: a pooled core.Runner (engine + per-run scratch, Reset per
// trial instead of reallocated) and the current cell's reusable
// adversary. Job closures receive it through Run.
type Arena struct {
	// Runner is the worker's pooled trial driver.
	Runner *core.Runner

	cell string
	adv  ReusableAdversary
}

// NewArena returns a fresh arena with an empty pooled runner.
func NewArena() *Arena { return &Arena{Runner: core.NewRunner()} }

// AdversaryFor returns the arena's reusable adversary for cell, invoking
// build only on first use or when the worker moved to a different cell,
// and Reset-ing it to src either way. One adversary construction per
// (worker, cell) instead of one per trial.
func (a *Arena) AdversaryFor(cell string, src *rng.Source, build func() (ReusableAdversary, error)) (ReusableAdversary, error) {
	if a.adv == nil || a.cell != cell {
		adv, err := build()
		if err != nil {
			return nil, err
		}
		a.adv, a.cell = adv, cell
	}
	a.adv.Reset(src)
	return a.adv, nil
}

// JobResult reports one executed (or skipped) job.
type JobResult struct {
	Index        int
	Measurements []Measurement
	Err          error
	Skipped      bool // true when cancellation prevented the job from running
}

// Config tunes a Run.
type Config struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after every completed job with the
	// number of jobs finished so far and the total. Calls are serialized
	// and done is nondecreasing. Jobs served from the cell cache count
	// toward the initial done value but trigger no call.
	Progress func(done, total int)
	// OnResult, when non-nil, is called with every result produced by the
	// pool, in completion order (not job-index order). Calls are
	// serialized with each other and with Progress. Results served from
	// the cache are not replayed — OnResult observes only fresh work,
	// which is exactly what streaming needs.
	OnResult func(JobResult)
	// Cache, when non-nil, is the content-addressed cell store consulted
	// by RunSpec: a cell whose key (spec seed, adversary, n, k, goal,
	// round budget, trial count, engine version) is present is not
	// recomputed, and each freshly computed, fully successful cell is
	// stored as soon as its last trial lands — so a cancelled or killed
	// run leaves every completed cell behind, and rerunning it over the
	// same cache executes only the rest. Ignored by Run, which has no
	// cell structure.
	Cache cache.Cache
	// Remote, when non-nil, distributes whole grid cells to external
	// executors (internal/cluster's Coordinator over HTTP) while the
	// local pool keeps working: local workers claim unleased cells,
	// leased cells that time out are re-issued or stolen locally, and
	// results merge into the same job-indexed slice either way — so
	// remote workers (including ones that die, stall, or speak the wrong
	// engine version) can never change artifact bytes, only wall-clock
	// time; see internal/cluster's trust note. The cell cache composes
	// unchanged: only cells it doesn't already hold are distributed.
	// Ignored by Run, which has no cell structure.
	Remote Remote
}

// Run executes compiled jobs on a worker pool and returns one JobResult
// per job, in job-index order. Job-level errors are recorded in the
// results; the returned error is non-nil only when ctx was cancelled, in
// which case the results for jobs that did complete are still returned
// and the rest are marked Skipped.
func Run(ctx context.Context, jobs []Job, cfg Config) ([]JobResult, error) {
	results := newResults(len(jobs))
	return results, runLocal(ctx, jobs, results, cfg, nil)
}

// newResults returns the slice every execution path fills: one Skipped
// placeholder per job. RunSpec overwrites the jobs of cached cells
// before execution; every job still Skipped is pending work.
func newResults(n int) []JobResult {
	results := make([]JobResult, n)
	for i := range results {
		results[i] = JobResult{Index: i, Skipped: true}
	}
	return results
}

// runLocal executes the pending (Skipped) jobs of results on the local
// pool, in cell batches. Jobs already filled in — cached cells, which
// always cover whole cells and hence whole batches — count as done from
// the start and are not executed. landed, when non-nil, is called by the
// worker that finished each batch [lo, hi), outside every lock; a batch
// cut short by cancellation is not reported.
func runLocal(ctx context.Context, jobs []Job, results []JobResult, cfg Config, landed func(lo, hi int)) error {
	pending := 0
	for _, r := range results {
		if r.Skipped {
			pending++
		}
	}
	if pending == 0 {
		return cancelled(ctx, results)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batches := sliceBatches(jobs, pending, workers)
	if workers > len(batches) {
		workers = len(batches)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex // serializes the progress + result callbacks
		done    = len(jobs) - pending
		batchCh = make(chan batch)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewArena()
			for b := range batchCh {
				// Every batch starts from the default round budget; a
				// closure that wants a specific budget sets it per trial,
				// and one that doesn't can never inherit a previous
				// batch's.
				arena.Runner.MaxRounds = 0
				for idx := b.lo; idx < b.hi; idx++ {
					if ctx.Err() != nil {
						// Drain without running so the feeder never blocks.
						break
					}
					ms, err := jobs[idx].Run(ctx, jobs[idx].Src, arena)
					results[idx] = JobResult{Index: idx, Measurements: ms, Err: err}
					countJob(err)
					if cfg.Progress != nil || cfg.OnResult != nil {
						mu.Lock()
						if cfg.OnResult != nil {
							cfg.OnResult(results[idx])
						}
						done++
						if cfg.Progress != nil {
							cfg.Progress(done, len(jobs))
						}
						mu.Unlock()
					}
				}
				if landed != nil && !results[b.hi-1].Skipped {
					landed(b.lo, b.hi)
				}
			}
		}()
	}
feed:
	for _, b := range batches {
		if !results[b.lo].Skipped {
			continue // a cached cell; nothing to execute
		}
		mBatchTrials.Observe(float64(b.hi - b.lo))
		select {
		case batchCh <- b:
		case <-ctx.Done():
			break feed
		}
	}
	close(batchCh)
	wg.Wait()
	return cancelled(ctx, results)
}

// cancelled finishes a cancelled execution: every job still Skipped gets
// the context's error, and the run's error wraps it. It returns nil when
// ctx is live.
func cancelled(ctx context.Context, results []JobResult) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	for i := range results {
		if results[i].Skipped {
			results[i].Err = err
		}
	}
	return fmt.Errorf("campaign: cancelled: %w", err)
}

// batch is one scheduling unit: the half-open job-index range [lo, hi).
type batch struct{ lo, hi int }

// sliceBatches partitions the job list into scheduling units: maximal
// runs of consecutive jobs sharing a Cell, capped at ⌈pending/workers⌉
// jobs so the pending work spreads over the whole pool (with as many
// equal cells as workers, every unit is a whole cell).
func sliceBatches(jobs []Job, pending, workers int) []batch {
	size := (pending + workers - 1) / workers // 0 (uncapped) when nothing is pending
	batches := make([]batch, 0, len(jobs))
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].Cell == jobs[lo].Cell && (size <= 0 || hi-lo < size) {
			hi++
		}
		batches = append(batches, batch{lo, hi})
		lo = hi
	}
	return batches
}
