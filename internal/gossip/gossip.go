// Package gossip studies the all-to-all variant of the dissemination
// problem — the paper's §5 names gossiping as the natural next question
// for the matrix-evolution technique.
//
// Gossip completes when every process has heard every value (all rows of
// G(t) full), versus broadcast's "some row full". The two problems behave
// very differently under dynamic rooted trees:
//
//   - Against an adaptive adversary, gossip time is UNBOUNDED. Witness
//     (n = 2): repeat the tree rooted at process 1 with edge 1 → 0.
//     Process 1 broadcasts in one round, but process 1's heard set never
//     grows, so process 0's value never reaches it. Staller generalizes
//     this to any n. This is why the broadcast problem, not gossip, is the
//     right object for the worst-case analysis of the paper.
//   - Under oblivious random adversaries, gossip completes and its time is
//     a small multiple of broadcast time (experiment E9 measures the
//     ratio).
package gossip

import (
	"dyntreecast/internal/core"
	"dyntreecast/internal/tree"
)

// Time runs adv until every process has heard every value and returns the
// number of rounds. Unlike broadcast, termination is not guaranteed for
// adaptive adversaries: callers should set core.WithMaxRounds and handle
// core.ErrMaxRounds.
//
// Time allocates a fresh engine per call; hot loops (the batched campaign
// pipeline) run the same computation on a pooled core.Runner via
// Runner.Run with the Gossip goal instead, which is round-for-round and
// error-for-error identical.
func Time(n int, adv core.Adversary, opts ...core.Option) (int, error) {
	res, err := core.Run(n, adv, core.Gossip, opts...)
	return res.Rounds, err
}

// BothTimes runs adv once and reports the round at which broadcast
// completed and the round at which gossip completed (the same run, so the
// ratio is meaningful). Termination caveats as in Time.
func BothTimes(n int, adv core.Adversary, opts ...core.Option) (broadcast, gossip int, err error) {
	broadcast = -1
	opts = append(opts, core.WithObserver(func(round int, _ *tree.Tree, e *core.Engine) {
		if broadcast < 0 && e.BroadcastDone() {
			broadcast = round
		}
	}))
	res, err := core.Run(n, adv, core.Gossip, opts...)
	if err != nil {
		return broadcast, res.Rounds, err
	}
	return broadcast, res.Rounds, nil
}

// Staller is the adversary that stalls gossip forever on any n >= 2: it
// always plays the star rooted at process n−1. The root broadcasts in one
// round, but its own heard set never grows, so gossip never completes.
// Plug into Time with a round budget to observe the stall.
type Staller struct{}

// Next implements core.Adversary.
func (Staller) Next(v core.View) *tree.Tree {
	t, err := tree.Star(v.N(), v.N()-1)
	if err != nil {
		return nil
	}
	return t
}

var _ core.Adversary = Staller{}
