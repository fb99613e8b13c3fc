package campaign

import (
	"context"
	"fmt"
	"slices"
)

// This file is the campaign side of the distributed campaign fabric
// (DESIGN.md §3e): RunSpec can shard a planned spec's grid cells to
// remote workers through a Remote scheduler while its own local pool
// keeps executing, and merge whatever comes back into the same per-cell
// round counts the purely local path fills.
//
// The unit of distribution is a shard: a contiguous sub-range of one
// cell's trials (the whole cell being the degenerate single shard). PR 2
// made every cell a pure function of (engine version, seed, goal, round
// budget, scenario, n, trials) — its random streams are derived from the
// cell's own content address, never from grid position, and trial i's
// stream depends on i alone — so any trial sub-range can be executed
// anywhere and its round counts merged byte-identically. A
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
// the job anywhere (ExecuteCellJob) yields the range's round counts,
// byte-identical to a local run — each trial's stream is derived from
// the content address and the trial's index, not from where the cell
// sits in any grid or how its trials are sharded.
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
	// concurrently across shards — with the shard's round counts in
	// trial order (exactly hi-lo of them, one for each of the cell's
	// trials lo..hi-1) when the remote side completes it. Shards
	// the local pool claims and completes (ClaimLocal + CompleteLocal)
	// are never delivered.
	Open(jobs []CellJob, deliver func(key string, lo, hi int, rounds []uint32)) RemoteSession
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
// remote work units, in plan order: each job's single-cell Spec plans
// (anywhere) to the cell's exact trial streams, and Key is the same
// content address the cell cache uses. Its cost is O(cells) whatever the
// trial count.
func (s *Spec) CellJobs() ([]CellJob, error) {
	cells, canon, err := s.plan()
	if err != nil {
		return nil, err
	}
	out := make([]CellJob, len(cells))
	for i, c := range cells {
		out[i] = cellJob(canon, &c)
	}
	return out, nil
}

// cellJob builds the self-contained work unit of one planned cell: a
// canonical spec with exactly the cell's scenario and n. Its cell
// identity — and therefore its streams and content address — matches the
// originating grid's, because identities never depend on grid position.
func cellJob(canon Spec, c *cellPlan) CellJob {
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
// drift beyond the version string); the cell executor then runs the
// shard's trials on one arena, trial lo seeing exactly the stream it
// would in a whole-cell run. Any trial error fails the whole shard,
// because partial shards are never pushed — the coordinator re-queues
// failed leases and the deterministic error surfaces through the local
// pool instead.
func ExecuteCellJob(ctx context.Context, job CellJob) ([]byte, error) {
	cells, canon, err := job.Spec.plan()
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", job.Cell, err)
	}
	if len(cells) != 1 {
		return nil, fmt.Errorf("campaign: cell %s: spec plans to %d cells, want exactly 1", job.Cell, len(cells))
	}
	c := &cells[0]
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
	rounds := make([]uint32, hi-lo)
	var trialErr error
	ran := c.execute(ctx, lo, hi, NewArena(), rounds, func(i int, err error) bool {
		countTrial(err)
		if err != nil {
			trialErr = fmt.Errorf("campaign: cell %s trial %d: %w", job.Cell, i, err)
		}
		return err == nil
	})
	switch {
	case trialErr != nil:
		return nil, trialErr
	case ran < hi-lo:
		return nil, fmt.Errorf("campaign: cancelled: %w", ctx.Err())
	}
	return appendCellEntry(nil, job.Cell, rounds), nil
}

// runRemote is RunSpec's execution path when Config.Remote is set: runs
// not already served from the cache are offered to the remote scheduler
// while cfg.Workers local workers claim and execute the rest, shard by
// shard, on the same pool. A shard's round counts land in its run
// whichever side computes them, so the aggregated outcome is
// byte-identical to a purely local run — remote workers (and their
// failures) can only move wall-clock time, and so can the shard size,
// because a trial's stream depends only on its index.
func (e *execution) runRemote(ctx context.Context) {
	// The scheduler sees each content address once: a grid that lists
	// the same cell twice (ns: [8, 8]) has one run for both, and cache
	// coverage is all-or-nothing per run.
	work := make(map[string]int, len(e.runs))
	var cellJobs []CellJob
	for i := range e.runs {
		if r := &e.runs[i]; r.left > 0 {
			work[r.plan.Key] = i
			cellJobs = append(cellJobs, cellJob(e.canon, r.plan))
		}
	}
	if len(cellJobs) == 0 {
		return
	}

	closed := false // guarded by e.mu
	// fire lands trials [lo, hi) of the i-th run — round counts rounds,
	// failures errs, sorted by trial — and reports each of them. After
	// close (cancellation teardown) late remote deliveries are dropped
	// so nothing touches the runs once runRemote returned.
	fire := func(i, lo, hi int, rounds []uint32, errs []trialErr) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if closed || lo >= hi {
			return
		}
		r := &e.runs[i]
		copy(r.rounds[lo:hi], rounds)
		next := errs
		for t := lo; t < hi; t++ {
			var err error
			if len(next) > 0 && next[0].i == t {
				err, next = next[0].err, next[1:]
			}
			countTrial(err)
			e.report(r, t, err)
		}
		e.land(i, lo, hi, errs)
	}
	deliver := func(key string, lo, hi int, rounds []uint32) {
		i, ok := work[key]
		if !ok {
			return
		}
		n := e.runs[i].plan.Hi - e.runs[i].plan.Lo
		if lo < 0 || hi > n || lo > hi || len(rounds) != hi-lo {
			// The Remote contract (and the coordinator's result
			// validation) guarantee a shard inside the cell carrying
			// exactly hi-lo trials; a scheduler that violates it has
			// marked the shard complete, so the only non-wedging
			// response is loud per-trial errors in the artifact (a hang
			// or a swallowed panic would hide it).
			err := fmt.Errorf("campaign: remote delivered %d trials for %s[%d:%d) of %d",
				len(rounds), e.runs[i].plan.Cell, lo, hi, n)
			lo, hi = max(lo, 0), max(min(hi, n), lo)
			errs := make([]trialErr, 0, hi-lo)
			for t := lo; t < hi; t++ {
				errs = append(errs, trialErr{t, err})
			}
			fire(i, lo, hi, nil, errs)
			return
		}
		fire(i, lo, hi, rounds, nil)
	}

	session := e.cfg.Remote.Open(cellJobs, deliver)
	defer session.Close()

	claim := func() (batch, bool) {
		for {
			job, ok := session.ClaimLocal(ctx)
			if !ok {
				return batch{}, false
			}
			if i, known := work[job.Key]; known {
				lo, hi := job.ShardBounds()
				lo = max(lo, 0)
				hi = max(min(hi, job.Trials), lo)
				mBatchTrials.Observe(float64(hi - lo))
				return batch{i, lo, hi}, true
			}
		}
	}
	runPool(min(e.cfg.workers(), len(cellJobs)), claim, func(b batch, a *Arena) {
		// A local shard runs into the arena's scratch and lands only if
		// it beats the remote side; a shard cut short by cancellation is
		// discarded.
		r := &e.runs[b.cell]
		a.buf = slices.Grow(a.buf[:0], b.hi-b.lo)[:b.hi-b.lo]
		var errs []trialErr
		ran := r.plan.execute(ctx, b.lo, b.hi, a, a.buf, func(i int, err error) bool {
			if err != nil {
				errs = append(errs, trialErr{i, err})
			}
			return true
		})
		if ran == b.hi-b.lo && session.CompleteLocal(r.plan.Key, b.lo, b.hi) {
			fire(b.cell, b.lo, b.hi, a.buf, errs)
		}
	})

	e.mu.Lock()
	closed = true
	e.mu.Unlock()
}
