// Package campaign is the parallel experiment orchestrator: it plans a
// declarative sweep specification (scenarios × n × trials × goal) into
// grid cells and runs each cell's trials, by index, on a
// context-cancellable worker pool sized to GOMAXPROCS.
//
// A cell is the unit of work and a trial is an index (DESIGN.md §3d).
// The cell executor runs a trial range [lo, hi) of one cell on a
// worker's Arena — a pooled core.Runner, the cell's reusable adversary
// and one reseeded random source — and writes one uint32 round count per
// trial, so the steady-state trial loop allocates nothing. RunSpec caps
// a batch at ⌈pending trials / workers⌉: grids with at least as many
// cells as workers run whole cells, and a single big cell is split
// evenly across the pool. The split never changes an output byte.
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
//   - A trial's random stream is a function of its cell and its index
//     alone. Each cell's root source is seeded from a hash of the
//     campaign seed and the cell's own coordinates, and trial i draws
//     from New(the root's i-th output) — the stream Split would hand the
//     i-th trial — derived lazily by the executor. A cell's results thus
//     depend neither on what else the grid contains nor on the worker,
//     batch or shard that ran a trial.
//   - Round counts land in one slice per cell, indexed by trial (disjoint
//     writes, no locks), and aggregation walks the cells in plan order
//     and each cell's trials in index order. Scheduling can reorder
//     execution but never observation.
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
// package re-exports Spec/RunSpec as Campaign/RunCampaign. Local
// batches, cluster shards (ExecuteCellJob) and cache loads all fill the
// same per-cell round counts over trial ranges. Spec.Compile, Run, Job,
// JobResult, Measurement and Aggregate remain as a job-per-trial adapter
// over the same pool and summarizer, for callers that trace single
// trials.
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

// Measurement is one named scalar produced by a job.
//
// Deprecated: part of the job-per-trial adapter (see Run). RunSpec
// records one uint32 round count per trial instead.
type Measurement struct {
	Cell  string  `json:"cell"`  // aggregation key; jobs sharing a cell are pooled
	Value float64 `json:"value"` // the observed quantity (usually a round count)
}

// Job is one compiled trial: it owns the source Split hands its trial,
// and Run executes it on a worker's Arena.
//
// Deprecated: part of the job-per-trial adapter (see Run). RunSpec plans
// cells and derives trial sources by index without building jobs.
type Job struct {
	Index int         // position in compile order; doubles as the result slot
	Cell  string      // aggregation cell (set by Spec.Compile)
	Src   *rng.Source // private generator, pre-split at compile time
	// Run executes the job from src on the worker's Arena.
	Run func(ctx context.Context, src *rng.Source, a *Arena) ([]Measurement, error)
}

// JobResult reports one executed (or skipped) job.
//
// Deprecated: part of the job-per-trial adapter (see Run).
type JobResult struct {
	Index        int
	Measurements []Measurement
	Err          error
	Skipped      bool // true when cancellation prevented the job from running
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
// trial instead of reallocated), the current cell's reusable adversary,
// the cell executor's sources, and a scratch buffer for shards that land
// only if they win their race.
type Arena struct {
	// Runner is the worker's pooled trial driver.
	Runner *core.Runner

	cell string
	adv  ReusableAdversary
	src  rng.Source // the current trial's source, reseeded per trial
	// root is rootOf's root source, advanced past its first next trials,
	// so a worker's later ranges of a cell resume from it.
	root   rng.Source
	rootOf *cellPlan
	next   int
	buf    []uint32
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

// TrialResult reports one freshly executed trial to Config.OnResult.
type TrialResult struct {
	Index  int    // the trial's job index: its position over the planned cells
	Cell   string // the trial's cell
	Rounds int    // its round count; 0 when Err is set
	Err    error
}

// Config tunes a Run.
type Config struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after every completed trial with
	// the number of trials finished so far and the total. Calls are
	// serialized and done is nondecreasing. Trials served from the cell
	// cache count toward the initial done value but trigger no call.
	Progress func(done, total int)
	// OnResult, when non-nil, is called with every trial RunSpec
	// executes, in completion order (not index order); a cell a grid
	// lists twice reports each trial once per listing. Calls are
	// serialized with each other and with Progress. Trials served from
	// the cache are not replayed — OnResult observes only fresh work,
	// which is exactly what streaming needs. Ignored by Run.
	OnResult func(TrialResult)
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
	// results merge into the same per-cell round counts either way — so
	// remote workers (including ones that die, stall, or speak the wrong
	// engine version) can never change artifact bytes, only wall-clock
	// time; see internal/cluster's trust note. The cell cache composes
	// unchanged: only cells it doesn't already hold are distributed.
	// Ignored by Run, which has no cell structure.
	Remote Remote
}

// workers returns the configured pool size.
func (cfg *Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// batch is one scheduling unit: trials [lo, hi) of the cell-th cell.
type batch struct{ cell, lo, hi int }

// sliceBatches cuts cells of the given trial counts into scheduling
// units of at most ⌈total/workers⌉ trials, so the pending work spreads
// over the whole pool (with as many equal cells as workers, every unit
// is a whole cell). A cell of 0 trials gets none.
func sliceBatches(sizes []int, workers int) []batch {
	total := 0
	for _, n := range sizes {
		total += n
	}
	size := max((total+workers-1)/workers, 1)
	var batches []batch
	for c, n := range sizes {
		for lo := 0; lo < n; lo += size {
			batches = append(batches, batch{c, lo, min(lo+size, n)})
		}
	}
	return batches
}

// runPool is the one worker pool: workers goroutines, each owning an
// Arena for its lifetime, execute claimed batches until claim reports
// none is left. RunSpec's local and remote-backed paths and the Run
// adapter all run on it.
func runPool(workers int, claim func() (batch, bool), exec func(batch, *Arena)) {
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			for b, ok := claim(); ok; b, ok = claim() {
				exec(b, a)
			}
		}()
	}
	wg.Wait()
}

// claimInOrder returns a claim function that hands out batches in order
// until they run out or ctx is done.
func claimInOrder(ctx context.Context, batches []batch) func() (batch, bool) {
	var mu sync.Mutex
	return func() (batch, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(batches) == 0 || ctx.Err() != nil {
			return batch{}, false
		}
		b := batches[0]
		batches = batches[1:]
		mBatchTrials.Observe(float64(b.hi - b.lo))
		return b, true
	}
}

// Run executes compiled jobs on the worker pool RunSpec uses and returns
// one JobResult per job, in job-index order. Each maximal run of
// consecutive jobs sharing a Cell is scheduled like a cell, and every
// batch starts from the default round budget. Job-level errors are
// recorded in the results; the returned error is non-nil only when ctx
// was cancelled, in which case the results for jobs that did complete are
// still returned and the rest are marked Skipped. Only Workers and
// Progress of cfg apply.
//
// Deprecated: Run, Spec.Compile, Job, JobResult, Measurement and
// Aggregate are a job-per-trial adapter kept for callers that trace
// single trials; RunSpec runs cells by trial index without them.
func Run(ctx context.Context, jobs []Job, cfg Config) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	for i := range results {
		results[i] = JobResult{Index: i, Skipped: true}
	}
	var starts, sizes []int
	for lo, hi := 0, 0; lo < len(jobs); lo = hi {
		for hi = lo + 1; hi < len(jobs) && jobs[hi].Cell == jobs[lo].Cell; hi++ {
		}
		starts, sizes = append(starts, lo), append(sizes, hi-lo)
	}
	workers := cfg.workers()
	batches := sliceBatches(sizes, workers)
	var (
		mu   sync.Mutex // serializes Progress
		done int
	)
	runPool(min(workers, len(batches)), claimInOrder(ctx, batches), func(b batch, a *Arena) {
		a.Runner.MaxRounds = 0
		for idx := starts[b.cell] + b.lo; idx < starts[b.cell]+b.hi && ctx.Err() == nil; idx++ {
			ms, err := jobs[idx].Run(ctx, jobs[idx].Src, a)
			results[idx] = JobResult{Index: idx, Measurements: ms, Err: err}
			countTrial(err)
			if cfg.Progress != nil {
				mu.Lock()
				done++
				cfg.Progress(done, len(jobs))
				mu.Unlock()
			}
		}
	})
	err := ctx.Err()
	if err == nil {
		return results, nil
	}
	for i := range results {
		if results[i].Skipped {
			results[i].Err = err
		}
	}
	return results, fmt.Errorf("campaign: cancelled: %w", err)
}
