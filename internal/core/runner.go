package core

import "fmt"

// Runner is the allocation-free trial driver of the batched pipeline: it
// owns one reusable Engine and drives adversaries to completion without
// materializing a Result. The package-level Run allocates a fresh engine
// and a full Result (final matrix statistics included) per call; a warm
// Runner reuses everything via Engine.Reset, so a trial costs only what
// the adversary itself allocates. Each campaign worker owns one Runner
// and serves every trial it executes with it (see DESIGN.md §3d).
//
// A Runner is not safe for concurrent use, and the round counts it
// returns are identical to the package-level Run's for the same adversary
// and stream — the differential tests in runner_test.go pin this.
type Runner struct {
	// MaxRounds caps each run's rounds; 0 selects the n²+1 default of the
	// §2 trivial bound, exactly as WithMaxRounds does for Run. It is
	// per-run configuration on a long-lived object: the campaign pool
	// clears it before every batch, so a job closure that wants a
	// specific budget must set it per trial and one that doesn't can
	// never inherit a stale value.
	MaxRounds int
	engine    *Engine
}

// NewRunner returns an empty Runner; its engine is built lazily at the
// first run and resized on demand by Engine.Reset.
func NewRunner() *Runner { return &Runner{} }

// Engine exposes the pooled engine: valid after a run until the next one,
// nil before the first. For observers and tests; treat it as read-only.
func (r *Runner) Engine() *Engine { return r.engine }

func (r *Runner) reset(n int) *Engine {
	if r.engine == nil {
		r.engine = NewEngine(n)
	} else {
		r.engine.Reset(n)
	}
	return r.engine
}

func (r *Runner) budget(n int) int {
	if r.MaxRounds > 0 {
		return r.MaxRounds
	}
	return n*n + 1
}

// Run drives adv from the round-0 state until the goal holds and returns
// the number of rounds applied (the paper's t* for Broadcast). Error
// conditions and messages match the package-level Run, so the two paths
// produce byte-identical campaign artifacts.
func (r *Runner) Run(n int, adv Adversary, goal Goal) (int, error) {
	e := r.reset(n)
	maxRounds := r.budget(n)
	done := func() bool {
		if goal == Gossip {
			return e.GossipDone()
		}
		return e.BroadcastDone()
	}
	for !done() {
		if e.round >= maxRounds {
			return e.round, fmt.Errorf("%w: %s incomplete after %d rounds (n=%d)",
				ErrMaxRounds, goal, e.round, n)
		}
		t := adv.Next(e)
		if t == nil || t.N() != n {
			return e.round, fmt.Errorf("%w: round %d", ErrBadTree, e.round+1)
		}
		e.Step(t)
	}
	return e.round, nil
}
