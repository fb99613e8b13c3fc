package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dyntreecast/internal/rng"
)

// This file is the campaign side of the distributed campaign fabric
// (DESIGN.md §3e): RunSpec can shard a compiled spec's grid cells to
// remote workers through a Remote scheduler while its own local pool
// keeps executing, and merge whatever comes back into the same
// job-indexed result slice the purely local path fills.
//
// The unit of distribution is a shard: a contiguous sub-range of one
// cell's trials (the whole cell being the degenerate single shard). PR 2
// made every cell a pure function of (engine version, seed, goal, round
// budget, scenario, n, trials) — its random streams are derived from the
// cell's own content address, never from grid position, and split
// per-trial in trial order — so any trial sub-range can be executed
// anywhere and its per-trial measurements merged byte-identically. A
// CellJob carries a self-contained single-cell Spec plus an optional
// trial sub-range; executing it on any machine running the same engine
// version reproduces the coordinator's bytes for exactly those trials,
// which is why remote execution can never change an artifact, only
// wall-clock time.

// CellJob is one shard of distributable work: a self-contained canonical
// single-cell Spec, the cell's content address, and the trial sub-range
// [TrialLo, TrialHi) to execute. Both bounds zero is the whole-cell
// encoding (TrialLo=0, TrialHi=Trials), which keeps the wire format and
// behavior of pre-sharding schedulers and workers unchanged. Executing
// the job anywhere (ExecuteCellJob) yields the range's per-trial
// measurements, byte-identical to a local run — each trial owns a
// pre-split stream derived from the content address, not from where the
// cell sits in any grid or how its trials are sharded.
type CellJob struct {
	Cell    string `json:"cell"`   // display key ("random-tree/n=64")
	Key     string `json:"key"`    // content address (cell cache key)
	Trials  int    `json:"trials"` // the cell's total trial count
	Spec    Spec   `json:"spec"`   // canonical spec compiling to exactly this cell
	TrialLo int    `json:"trial_lo,omitempty"`
	TrialHi int    `json:"trial_hi,omitempty"` // 0 with TrialLo 0 means the whole cell
}

// ShardBounds returns the job's trial sub-range [lo, hi), normalizing
// the whole-cell encoding (0, 0) to (0, Trials).
func (j CellJob) ShardBounds() (lo, hi int) {
	if j.TrialLo == 0 && j.TrialHi == 0 {
		return 0, j.Trials
	}
	return j.TrialLo, j.TrialHi
}

// Remote distributes trial shards of running campaigns to external
// executors. RunSpec calls Open with the campaign's pending cells; the
// scheduler decides how (whether) to split each cell's trial range into
// shards, the local pool and the remote side race for shards through the
// returned session, and whichever completes a shard first supplies its
// results. internal/cluster's Coordinator is the HTTP implementation.
type Remote interface {
	// Open registers a campaign's pending cells (whole, TrialLo/TrialHi
	// unset — sharding is the scheduler's choice). deliver is invoked at
	// most once per (key, lo, hi) shard — serialized per shard, possibly
	// concurrently across shards — with the shard's measurements in
	// trial order (exactly hi-lo of them, one for each of the cell's
	// trials lo..hi-1) when the remote side completes it. Shards
	// the local pool claims and completes (ClaimLocal + CompleteLocal)
	// are never delivered.
	Open(jobs []CellJob, deliver func(key string, lo, hi int, trials []Measurement)) RemoteSession
}

// RemoteSession coordinates one campaign's shards between the local pool
// and remote workers.
type RemoteSession interface {
	// ClaimLocal blocks until a shard is available for local execution
	// and claims it — the returned job's ShardBounds give the trial
	// range — returning false when every shard is complete, the session
	// is closed, or ctx is done. Shards under an active remote lease are
	// not handed out until the lease expires, so local and remote work
	// overlap only when a lease times out.
	ClaimLocal(ctx context.Context) (CellJob, bool)
	// CompleteLocal marks a locally executed shard [lo, hi) of the keyed
	// cell complete, reporting whether the caller won (false means the
	// remote side delivered the shard first and the local results must
	// be discarded). The bounds must be the normalized ShardBounds of
	// the claimed job.
	CompleteLocal(key string, lo, hi int) bool
	// Close detaches the campaign from the scheduler; pending shards are
	// withdrawn and late remote results are dropped.
	Close()
}

// CellJobs returns the spec's feasible grid cells as self-contained
// remote work units, in compile order. This is the distribution-side view
// of Compile: each job's single-cell Spec compiles (anywhere) to the
// cell's exact trial streams, and Key is the same content address the
// cell cache uses. It plans the grid without building a job per trial,
// so its cost is O(cells) whatever the trial count.
func (s *Spec) CellJobs() ([]CellJob, error) {
	cells, canon, err := s.plan()
	if err != nil {
		return nil, err
	}
	out := make([]CellJob, len(cells))
	for i, c := range cells {
		out[i] = cellJob(canon, c)
	}
	return out, nil
}

// cellJob builds the self-contained work unit of one compiled cell: a
// canonical spec with exactly the cell's scenario and n. Its cell
// identity — and therefore its streams and content address — matches the
// originating grid's, because identities never depend on grid position.
func cellJob(canon Spec, c cellPlan) CellJob {
	return CellJob{
		Cell:   c.Cell,
		Key:    c.Key,
		Trials: c.Hi - c.Lo,
		Spec: Spec{
			Version:   SpecVersion,
			Scenarios: []Scenario{c.ground.scenario()},
			Ns:        []int{c.N},
			Trials:    canon.Trials,
			Seed:      canon.Seed,
			Goal:      canon.Goal,
			MaxRounds: canon.MaxRounds,
		},
	}
}

// ExecuteCellJob runs one leased shard to completion and returns it as a
// cell entry (DecodeCellEntry) holding the shard's hi-lo trials for
// ShardBounds' lo..hi-1 — the worker side of the cluster protocol, which
// pushes the entry as is. The job's spec is planned locally and checked
// against the job's content address (the handshake that catches engine
// drift beyond the version string); the shard's trials then run on one
// arena, each encoded as it finishes. Trial i's source is the one compile
// splits off the cell's root — New of the root's i-th output — so the
// root is advanced past the trials before lo instead of splitting a
// source for every trial of the cell, and trial lo sees exactly the
// stream it would in a whole-cell run. Any trial error fails the whole
// shard, because partial shards are never pushed — the coordinator
// re-queues failed leases and the deterministic error surfaces through
// the local pool instead.
func ExecuteCellJob(ctx context.Context, job CellJob) ([]byte, error) {
	cells, canon, err := job.Spec.plan()
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", job.Cell, err)
	}
	if len(cells) != 1 {
		return nil, fmt.Errorf("campaign: cell %s: spec compiles to %d cells, want exactly 1", job.Cell, len(cells))
	}
	c := cells[0]
	if c.Key != job.Key {
		return nil, fmt.Errorf("campaign: cell %s: content address mismatch (lease %.12s, computed %.12s)",
			job.Cell, job.Key, c.Key)
	}
	lo, hi := job.ShardBounds()
	if lo < 0 || hi > canon.Trials || lo >= hi {
		return nil, fmt.Errorf("campaign: cell %s: trial range [%d,%d) outside the cell's %d trials",
			job.Cell, lo, hi, canon.Trials)
	}
	mBatchTrials.Observe(float64(hi - lo))
	root := rng.New(canon.cellSeed(c.ground, c.N))
	for range lo {
		root.Uint64()
	}
	run := runCell(c.ground, c.N, c.Cell, canon.goal(), canon.MaxRounds)
	arena := NewArena()
	entry := appendEntryHeader(nil, job.Cell, hi-lo)
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("campaign: cancelled: %w", err)
		}
		ms, err := run(ctx, root.Split(), arena)
		countJob(err)
		if err == nil {
			entry, err = appendEntryTrial(entry, job.Cell, ms)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s trial %d: %w", job.Cell, i, err)
		}
	}
	return entry, nil
}

// runRemote is RunSpec's execution path when Config.Remote is set: cells
// not already served from the cache (their jobs still Skipped in results)
// are offered to the remote scheduler while cfg.Workers local workers
// claim and execute the rest, shard by shard, on pooled arenas. Results
// land in the job-indexed slice whichever side computes them, so the
// aggregated outcome is byte-identical to a purely local run — remote
// workers (and their failures) can only move wall-clock time, and so can
// the shard size, because every trial's stream was pre-split at compile
// time. landed, when non-nil, is told each job range whose results were
// spliced.
func runRemote(ctx context.Context, jobs []Job, cells []cellPlan, canon Spec, results []JobResult, cfg Config, landed func(lo, hi int)) error {
	// The distributable work is grouped by content address: a grid that
	// lists the same cell twice (ns: [8, 8]) compiles to two plans with
	// one address and identical streams, so one execution — local or
	// remote — must splice into every plan sharing the key, and the
	// scheduler must see the key exactly once. Cache coverage is
	// all-or-nothing per address, so a plan is either wholly pending or
	// wholly served.
	work := make(map[string][]cellPlan, len(cells))
	var cellJobs []CellJob
	done := len(jobs)
	for _, c := range cells {
		if !results[c.Lo].Skipped {
			continue
		}
		done -= c.Hi - c.Lo
		if _, ok := work[c.Key]; !ok {
			cellJobs = append(cellJobs, cellJob(canon, c))
		}
		work[c.Key] = append(work[c.Key], c)
	}
	if len(cellJobs) == 0 {
		return cancelled(ctx, results)
	}

	var (
		mu     sync.Mutex // guards results splicing, callbacks, and closed
		closed bool
	)
	// fire splices one shard's fresh results and runs the callbacks, in
	// job-index (trial) order, then reports the shard's trials [lo, hi)
	// of every plan in plans as landed (nil plans for a malformed
	// delivery, which is all errors). After close (cancellation teardown)
	// late remote deliveries are dropped so nothing touches the results
	// slice once runRemote returned it.
	fire := func(rs []JobResult, plans []cellPlan, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		for _, r := range rs {
			results[r.Index] = r
			countJob(r.Err)
			if cfg.OnResult != nil {
				cfg.OnResult(r)
			}
			done++
			if cfg.Progress != nil {
				cfg.Progress(done, len(jobs))
			}
		}
		if landed != nil {
			for _, plan := range plans {
				landed(plan.Lo+lo, plan.Lo+hi)
			}
		}
	}
	deliver := func(key string, lo, hi int, trials []Measurement) {
		plans, ok := work[key]
		if !ok {
			return
		}
		n := plans[0].Hi - plans[0].Lo
		var rs []JobResult
		if lo < 0 || hi > n || lo > hi || len(trials) != hi-lo {
			// The Remote contract (and the coordinator's result
			// validation) guarantee a shard inside the cell carrying
			// exactly hi-lo trials; a scheduler that violates it has
			// marked the shard complete, so the only non-wedging
			// response is loud per-job errors in the artifact (a hang
			// or a swallowed panic would hide it).
			err := fmt.Errorf("campaign: remote delivered %d trials for %s[%d:%d) of %d",
				len(trials), plans[0].Cell, lo, hi, n)
			for _, plan := range plans {
				for ti := max(lo, 0); ti < min(hi, n); ti++ {
					rs = append(rs, JobResult{Index: plan.Lo + ti, Err: err})
				}
			}
			fire(rs, nil, 0, 0)
			return
		}
		// Shards cover disjoint trial ranges, so splicing by trial
		// position needs no cross-shard bookkeeping.
		for _, plan := range plans {
			for ti := lo; ti < hi; ti++ {
				rs = append(rs, JobResult{Index: plan.Lo + ti, Measurements: trials[ti-lo : ti-lo+1 : ti-lo+1]})
			}
		}
		fire(rs, plans, lo, hi)
	}

	session := cfg.Remote.Open(cellJobs, deliver)
	defer session.Close()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cellJobs) {
		workers = len(cellJobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewArena()
			for {
				job, ok := session.ClaimLocal(ctx)
				if !ok {
					return
				}
				// Shard execution on the worker's arena, exactly the
				// batched pipeline's cell loop: fresh round budget, then
				// trial after trial through the job closures — for every
				// plan sharing the claimed content address.
				lo, hi := job.ShardBounds()
				lo, hi = max(lo, 0), min(hi, job.Trials)
				arena.Runner.MaxRounds = 0
				mBatchTrials.Observe(float64(hi - lo))
				plans := work[job.Key]
				rs := make([]JobResult, 0, len(plans)*max(hi-lo, 0))
				for _, plan := range plans {
					for ti := lo; ti < hi; ti++ {
						if ctx.Err() != nil {
							// Partial shards are discarded (their jobs
							// stay Skipped), mirroring the local pool's
							// drain-on-cancel.
							return
						}
						idx := plan.Lo + ti
						ms, err := jobs[idx].Run(ctx, jobs[idx].Src, arena)
						rs = append(rs, JobResult{Index: idx, Measurements: ms, Err: err})
					}
				}
				if session.CompleteLocal(job.Key, lo, hi) {
					fire(rs, plans, lo, hi)
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	closed = true
	mu.Unlock()
	return cancelled(ctx, results)
}
