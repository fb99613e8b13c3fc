package core_test

import (
	"errors"
	"testing"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// TestEngineResetMatchesFresh: an engine Reset between runs behaves
// exactly like a freshly allocated one, including across different n.
func TestEngineResetMatchesFresh(t *testing.T) {
	e := core.NewEngine(4)
	for _, n := range []int{7, 7, 3, 12, 1, 12} {
		e.Reset(n)
		if e.N() != n || e.Round() != 0 {
			t.Fatalf("after Reset(%d): n=%d round=%d", n, e.N(), e.Round())
		}
		fresh := core.NewEngine(n)
		src := rng.New(uint64(n))
		for r := 0; r < 5; r++ {
			tr := tree.Random(n, src)
			e.Step(tr)
			fresh.Step(tr)
			for y := 0; y < n; y++ {
				if !e.Heard(y).Equal(fresh.Heard(y)) {
					t.Fatalf("n=%d round %d: heard[%d] diverged", n, r+1, y)
				}
			}
			if !e.Broadcasters().Equal(fresh.Broadcasters()) {
				t.Fatalf("n=%d round %d: broadcasters diverged", n, r+1)
			}
		}
	}
}

// TestMatrixEngineReset mirrors the Engine test for the matrix oracle.
func TestMatrixEngineReset(t *testing.T) {
	e := core.NewMatrixEngine(5)
	for _, n := range []int{5, 9, 5} {
		e.Reset(n)
		fresh := core.NewMatrixEngine(n)
		src := rng.New(uint64(n) + 7)
		for r := 0; r < 4; r++ {
			tr := tree.Random(n, src)
			e.Step(tr)
			fresh.Step(tr)
		}
		if !e.Matrix().Equal(fresh.Matrix()) {
			t.Fatalf("n=%d: matrix diverged after reset", n)
		}
		if e.Round() != fresh.Round() {
			t.Fatalf("n=%d: rounds %d vs %d", n, e.Round(), fresh.Round())
		}
	}
}

// TestRunnerMatchesRun is the pooled pipeline's core guarantee: a warm
// Runner returns the same round counts (and error classes) as the
// allocating Run, trial after trial, across adversaries and goals.
func TestRunnerMatchesRun(t *testing.T) {
	r := core.NewRunner()
	for _, n := range []int{1, 2, 5, 16, 33} {
		for trial := 0; trial < 4; trial++ {
			seed := uint64(n*100 + trial)
			want, err1 := core.BroadcastTime(n, adversary.NewRandom(rng.New(seed)))
			got, err2 := r.Run(n, adversary.NewRandom(rng.New(seed)), core.Broadcast)
			if want != got || (err1 == nil) != (err2 == nil) {
				t.Fatalf("n=%d trial %d: Runner %d (%v), Run %d (%v)", n, trial, got, err2, want, err1)
			}
		}
	}
	// Gossip goal, interleaved with broadcast runs on the same Runner.
	for _, n := range []int{2, 8} {
		seed := uint64(n)
		want, err1 := core.Run(n, adversary.NewRandom(rng.New(seed)), core.Gossip)
		got, err2 := r.Run(n, adversary.NewRandom(rng.New(seed)), core.Gossip)
		if err1 != nil || err2 != nil || want.Rounds != got {
			t.Fatalf("gossip n=%d: Runner %d (%v), Run %d (%v)", n, got, err2, want.Rounds, err1)
		}
	}
}

// TestRunnerMaxRoundsError: budget exhaustion matches the allocating
// path's error class and message.
func TestRunnerMaxRoundsError(t *testing.T) {
	r := core.NewRunner()
	r.MaxRounds = 3
	static := adversary.Static{Tree: tree.IdentityPath(16)}
	got, err := r.Run(16, static, core.Broadcast)
	if !errors.Is(err, core.ErrMaxRounds) || got != 3 {
		t.Fatalf("rounds=%d err=%v, want 3 rounds and ErrMaxRounds", got, err)
	}
	_, werr := core.BroadcastTime(16, static, core.WithMaxRounds(3))
	if werr == nil || err.Error() != werr.Error() {
		t.Fatalf("error strings differ:\n runner: %v\n run:    %v", err, werr)
	}
	// A bad tree fails identically too.
	r.MaxRounds = 0
	nilAdv := adversary.Func(func(core.View) *tree.Tree { return nil })
	_, err = r.Run(4, nilAdv, core.Broadcast)
	_, werr = core.BroadcastTime(4, nilAdv)
	if !errors.Is(err, core.ErrBadTree) || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("bad-tree errors differ:\n runner: %v\n run:    %v", err, werr)
	}
}

// TestRunnerBothTimesMatchesGossip pins Runner.Run's two goals on one
// schedule against each other and against the observer-based
// gossip.BothTimes (checked numerically here to avoid an import cycle
// with the gossip package's own tests): broadcast must complete no later
// than gossip, and the allocating path must agree on both rounds.
func TestRunnerBothTimesMatchesGossip(t *testing.T) {
	r := core.NewRunner()
	for _, n := range []int{2, 6, 16} {
		seed := uint64(n) * 3
		b, err := r.Run(n, adversary.NewRandom(rng.New(seed)), core.Broadcast)
		if err != nil {
			t.Fatal(err)
		}
		g, err := r.Run(n, adversary.NewRandom(rng.New(seed)), core.Gossip)
		if err != nil {
			t.Fatal(err)
		}
		if b < 0 || b > g {
			t.Fatalf("n=%d: broadcast %d, gossip %d", n, b, g)
		}
		bAlone, err := core.BroadcastTime(n, adversary.NewRandom(rng.New(seed)))
		if err != nil || bAlone != b {
			t.Fatalf("n=%d: Runner broadcast %d, BroadcastTime %d (%v)", n, b, bAlone, err)
		}
		gAlone, err := core.Run(n, adversary.NewRandom(rng.New(seed)), core.Gossip)
		if err != nil || gAlone.Rounds != g {
			t.Fatalf("n=%d: Runner gossip %d, Run %d (%v)", n, g, gAlone.Rounds, err)
		}
	}
}

// TestRunnerTrialAllocs: a warm Runner with a reusable adversary runs
// whole trials without allocating — the tentpole invariant the batched
// pipeline is built on.
func TestRunnerTrialAllocs(t *testing.T) {
	const n = 64
	r := core.NewRunner()
	adv := adversary.NewRandom(nil)
	src := rng.New(1)
	warm := func() {
		adv.Reset(src)
		if _, err := r.Run(n, adv, core.Broadcast); err != nil {
			t.Fatal(err)
		}
	}
	warm() // grow every buffer
	allocs := testing.AllocsPerRun(20, warm)
	if allocs > 1 {
		t.Errorf("warm trial allocates %.1f objects/run, want ~0", allocs)
	}
}
