package adversary

import (
	"fmt"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// StaleAscendingPath is an adaptive adversary operating on delayed
// information: each round it plays the ascending-heard-count path that
// AscendingPath would have played Lag rounds earlier. It models an
// adversary whose view of the network lags behind reality — scheduling
// decisions propagate slowly — which interpolates between the fully
// adaptive heuristics (lag 0 is exactly AscendingPath) and the oblivious
// schedules (large lag degenerates toward replaying the opening move).
//
// The adversary is deterministic and source-free; its only state is a
// ring of heard-count snapshots indexed by the view's round counter, so
// one instance can drive many trials back to back (each trial restarts
// at round 0 and overwrites the ring before ever reading it), which is
// why its Reset has nothing to do.
type StaleAscendingPath struct {
	lag   int
	n     int
	snaps [][]int // ring of lag+1 heard-count snapshots, indexed round mod (lag+1)
	// sort scratch, pooled across rounds and trials
	buf                tree.Buf
	order, tmp, bucket []int
}

// NewStaleAscendingPath returns an adversary playing the ascending path
// on knowledge delayed by lag rounds. lag must be >= 0; lag 0 reproduces
// AscendingPath move for move.
func NewStaleAscendingPath(lag int) (*StaleAscendingPath, error) {
	if lag < 0 {
		return nil, fmt.Errorf("adversary: stale lag must be >= 0, got %d", lag)
	}
	return &StaleAscendingPath{lag: lag, n: -1}, nil
}

// Reset implements the campaign reusable-adversary contract. The ring is
// self-cleaning — round r writes its snapshot before any round reads it,
// and trials restart at round 0 — so there is nothing to rebind.
func (*StaleAscendingPath) Reset(*rng.Source) {}

// Next implements core.Adversary: record the current heard counts under
// the view's round index, then build the ascending path from the counts
// of max(0, round−lag) — the freshest state the lagged adversary has.
func (a *StaleAscendingPath) Next(v core.View) *tree.Tree {
	n, r := v.N(), v.Round()
	if n != a.n {
		a.snaps = make([][]int, a.lag+1)
		for i := range a.snaps {
			a.snaps[i] = make([]int, n)
		}
		a.n = n
	}
	cur := a.snaps[r%(a.lag+1)]
	for y := 0; y < n; y++ {
		cur[y] = v.Heard(y).Count()
	}
	stale := r - a.lag
	if stale < 0 {
		stale = 0
	}
	counts := a.snaps[stale%(a.lag+1)]

	order := tree.Grow(&a.order, n)
	tmp := tree.Grow(&a.tmp, n)
	for i := 0; i < n; i++ {
		order[i] = i
	}
	countingSortByAsc(order, tmp, counts, &a.bucket, n)
	return tree.PathInto(&a.buf, order)
}

var _ core.Adversary = (*StaleAscendingPath)(nil)
