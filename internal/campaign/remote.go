package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
	// concurrently across shards — with the shard's per-trial
	// measurements in trial order (exactly hi-lo slices, for trials
	// lo..hi-1 of the cell) when the remote side completes it. Shards
	// the local pool claims and completes (ClaimLocal + CompleteLocal)
	// are never delivered.
	Open(jobs []CellJob, deliver func(key string, lo, hi int, trials [][]Measurement)) RemoteSession
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
// cell cache uses.
func (s *Spec) CellJobs() ([]CellJob, error) {
	_, cells, canon, err := s.compile()
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
		Trials: len(c.JobIdx),
		Spec: Spec{
			Version:   SpecVersion,
			Scenarios: []Scenario{c.Scenario},
			Ns:        []int{c.N},
			Trials:    canon.Trials,
			Seed:      canon.Seed,
			Goal:      canon.Goal,
			MaxRounds: canon.MaxRounds,
		},
	}
}

// ExecuteCellJob runs one leased shard to completion and returns its
// per-trial measurements in trial order (hi-lo slices, for trials
// ShardBounds' lo..hi-1) — the worker side of the cluster protocol. The
// job's spec is compiled locally and checked against the job's content
// address (the handshake that catches engine drift beyond the version
// string); the cell's jobs are compiled whole and the shard's sub-range
// executed, so trial lo sees exactly the pre-split stream it would in a
// whole-cell run. Any trial error fails the whole shard, because partial
// shards are never pushed — the coordinator re-queues failed leases and
// the deterministic error surfaces through the local pool instead.
func ExecuteCellJob(ctx context.Context, job CellJob) ([][]Measurement, error) {
	jobs, cells, _, err := job.Spec.compile()
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", job.Cell, err)
	}
	if len(cells) != 1 || len(jobs) != len(cells[0].JobIdx) {
		return nil, fmt.Errorf("campaign: cell %s: spec compiles to %d cells, want exactly 1", job.Cell, len(cells))
	}
	if cells[0].Key != job.Key {
		return nil, fmt.Errorf("campaign: cell %s: content address mismatch (lease %.12s, computed %.12s)",
			job.Cell, job.Key, cells[0].Key)
	}
	lo, hi := job.ShardBounds()
	if lo < 0 || hi > len(jobs) || lo >= hi {
		return nil, fmt.Errorf("campaign: cell %s: trial range [%d,%d) outside the cell's %d trials",
			job.Cell, lo, hi, len(jobs))
	}
	results, err := Run(ctx, jobs[lo:hi], Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	trials := make([][]Measurement, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("campaign: cell %s trial %d: %w", job.Cell, lo+i, r.Err)
		}
		trials[i] = r.Measurements
	}
	return trials, nil
}

// remoteCell is one distributable cell, keyed by content address: every
// compiled plan sharing the address (duplicate grid cells have identical
// streams) plus, per plan, which trial positions are not already covered
// by the checkpoint or cache. Indexing by trial position — not job index
// — is what lets shard deliveries, which cover disjoint [lo, hi) trial
// ranges in arbitrary order, splice independently.
type remoteCell struct {
	plans  []cellPlan
	needed [][]bool // parallel to plans, indexed by trial position
}

// runRemote is RunSpec's execution path when Config.Remote is set: cells
// not already satisfied by the checkpoint or cache are offered to the
// remote scheduler while cfg.Workers local workers claim and execute the
// rest, shard by shard, on pooled arenas. Results land in the
// job-indexed slice whichever side computes them, so the aggregated
// outcome is byte-identical to a purely local run — remote workers (and
// their failures) can only move wall-clock time, and so can the shard
// size, because every trial's stream was pre-split at compile time.
func runRemote(ctx context.Context, jobs []Job, cells []cellPlan, canon Spec, cfg Config) ([]JobResult, error) {
	results, reused := initResults(jobs, cfg.Completed)

	// Cells with at least one job not covered by the checkpoint/cache are
	// the distributable work, grouped by content address: a grid that
	// lists the same cell twice (ns: [8, 8]) compiles to two plans with
	// one address and identical streams, so one execution — local or
	// remote — must splice into every plan sharing the key, and the
	// scheduler must see the key exactly once.
	work := make(map[string]*remoteCell, len(cells))
	var cellJobs []CellJob
	for _, c := range cells {
		needed := make([]bool, len(c.JobIdx))
		any := false
		for ti, idx := range c.JobIdx {
			if results[idx].Skipped {
				needed[ti], any = true, true
			}
		}
		if !any {
			continue
		}
		rc := work[c.Key]
		if rc == nil {
			rc = &remoteCell{}
			work[c.Key] = rc
			cellJobs = append(cellJobs, cellJob(canon, c))
		}
		rc.plans = append(rc.plans, c)
		rc.needed = append(rc.needed, needed)
	}
	if len(cellJobs) == 0 {
		return results, ctx.Err()
	}

	var (
		mu     sync.Mutex // guards results splicing, callbacks, and closed
		done   = reused
		closed bool
	)
	// fire splices one shard's fresh results and runs the callbacks, in
	// job-index (trial) order. After close (cancellation teardown) late
	// remote deliveries are dropped so nothing touches the results slice
	// once runRemote returned it.
	fire := func(rs []JobResult) {
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
	}
	deliver := func(key string, lo, hi int, trials [][]Measurement) {
		rc, ok := work[key]
		if !ok {
			return
		}
		var rs []JobResult
		for pi, plan := range rc.plans {
			need := rc.needed[pi]
			if lo < 0 || hi > len(need) || lo > hi || len(trials) != hi-lo {
				// The Remote contract (and the coordinator's result
				// validation) guarantee a shard inside the cell carrying
				// exactly hi-lo slices; a scheduler that violates it has
				// marked the shard complete, so the only non-wedging
				// response is loud per-job errors in the artifact (a hang
				// or a swallowed panic would hide it).
				err := fmt.Errorf("campaign: remote delivered %d trials for %s[%d:%d) of %d",
					len(trials), plan.Cell, lo, hi, len(need))
				for ti := max(lo, 0); ti < min(hi, len(need)); ti++ {
					if need[ti] {
						rs = append(rs, JobResult{Index: plan.JobIdx[ti], Err: err})
					}
				}
				continue
			}
			// Shards cover disjoint trial ranges, so splicing by trial
			// position needs no cross-shard bookkeeping; positions the
			// checkpoint or cache already covered are simply discarded.
			for ti := lo; ti < hi; ti++ {
				if need[ti] {
					rs = append(rs, JobResult{Index: plan.JobIdx[ti], Measurements: trials[ti-lo]})
				}
			}
		}
		fire(rs)
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
				if lo < 0 {
					lo = 0
				}
				if hi > job.Trials {
					hi = job.Trials
				}
				arena.Runner.MaxRounds = 0
				mBatchTrials.Observe(float64(hi - lo))
				rc := work[job.Key]
				var rs []JobResult
				cancelled := false
				for pi, plan := range rc.plans {
					need := rc.needed[pi]
					for ti := lo; ti < hi && ti < len(need); ti++ {
						if !need[ti] {
							continue
						}
						if ctx.Err() != nil {
							cancelled = true
							break
						}
						idx := plan.JobIdx[ti]
						ms, err := jobs[idx].Run(ctx, jobs[idx].Src, arena)
						rs = append(rs, JobResult{Index: idx, Measurements: ms, Err: err})
					}
				}
				if cancelled {
					// Partial shards are discarded (their jobs stay
					// Skipped), mirroring the local pool's drain-on-cancel.
					return
				}
				if session.CompleteLocal(job.Key, lo, hi) {
					fire(rs)
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	closed = true
	mu.Unlock()

	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Skipped {
				results[i].Err = err
			}
		}
		return results, fmt.Errorf("campaign: cancelled: %w", err)
	}
	return results, nil
}
