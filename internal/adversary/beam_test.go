package adversary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gamesolver"
)

func TestBeamSearchSmall(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		replay, rounds := BeamSearch(n, BeamConfig{Width: 6, RandomMoves: 3, Seed: 1})
		if err := bounds.CheckSandwich(n, rounds); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rounds < bounds.StaticPath(n) {
			t.Errorf("n=%d: beam found only %d rounds, static path gives %d",
				n, rounds, n-1)
		}
		// The reported rounds must be reproducible by replaying the
		// schedule.
		got, err := core.BroadcastTime(n, replay)
		if err != nil {
			t.Fatalf("n=%d: replay failed: %v", n, err)
		}
		if got != rounds {
			t.Errorf("n=%d: replay gives %d rounds, search reported %d", n, got, rounds)
		}
	}
}

func TestBeamSearchBeatsStaticPath(t *testing.T) {
	// With general-tree proposals the search strictly beats the trivial
	// n−1 schedule at n = 8 (t*(T8) >= 10 per the ZSS lower bound, so
	// headroom exists). Wide beams are used to keep this deterministic.
	const n = 8
	best := 0
	for seed := uint64(1); seed <= 4 && best <= bounds.StaticPath(n); seed++ {
		_, rounds := BeamSearch(n, BeamConfig{
			Width: 24, RandomMoves: 6, RandomTrees: 10, Seed: seed,
		})
		if rounds > best {
			best = rounds
		}
	}
	if best <= bounds.StaticPath(n) {
		t.Errorf("n=%d: beam rounds = %d, want > %d", n, best, n-1)
	}
}

func TestBeamSearchN1(t *testing.T) {
	replay, rounds := BeamSearch(1, BeamConfig{})
	if rounds != 0 {
		t.Errorf("n=1 rounds = %d, want 0", rounds)
	}
	if got, err := core.BroadcastTime(1, replay); err != nil || got != 0 {
		t.Errorf("n=1 replay: %d, %v", got, err)
	}
}

// TestBeamSearchBoundedByExactN6 validates the heuristic searches
// against the now-computable exact optimum at n = 6: t*(T6) = 7 (the
// lower-bound formula is tight there, confirmed by the parallel exact
// solver — see EXPERIMENTS.md E7). No beam seed may certify more rounds
// than the game value, and the budgeted deep-line search must reach
// exactly that value.
func TestBeamSearchBoundedByExactN6(t *testing.T) {
	const n, exact = 6, 7 // t*(T6); crossval re-derives this from the solver
	if exact != bounds.Lower(n) {
		t.Fatalf("test constant drifted: bounds.Lower(6) = %d", bounds.Lower(n))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		replay, rounds := BeamSearch(n, BeamConfig{Width: 8, RandomMoves: 3, Seed: seed})
		if rounds > exact {
			t.Errorf("seed %d: beam certifies %d rounds, exact optimum is %d", seed, rounds, exact)
		}
		if got, err := core.BroadcastTime(n, replay); err != nil || got != rounds {
			t.Errorf("seed %d: replay gives %d,%v, search reported %d", seed, got, err, rounds)
		}
	}
	line, depth, err := gamesolver.DeepestLine(n, 6000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if depth != exact {
		t.Errorf("deep-line certifies %d rounds at n=6, exact optimum is %d", depth, exact)
	}
	if got, err := core.BroadcastTime(n, Replay{Trees: line}); err != nil || got < depth {
		t.Errorf("deep-line replay gives %d,%v, want >= %d", got, err, depth)
	}
}

func TestBeamSearchDeterministic(t *testing.T) {
	_, r1 := BeamSearch(6, BeamConfig{Width: 5, RandomMoves: 3, Seed: 7})
	_, r2 := BeamSearch(6, BeamConfig{Width: 5, RandomMoves: 3, Seed: 7})
	if r1 != r2 {
		t.Errorf("same seed gave %d and %d rounds", r1, r2)
	}
}

// beamGolden pins BeamSearch's output for fixed configurations: the
// certified rounds and the SHA-256 of the schedule's parent arrays, one
// line per tree. The n = 70 row has two words per heard row, so the
// scoring's reach and edge counts cross a word boundary. Any change to
// how states are scored or ranked shows here as a different schedule.
var beamGolden = []struct {
	n      int
	cfg    BeamConfig
	rounds int
	digest string
}{
	{5, BeamConfig{Width: 6, RandomMoves: 3, Seed: 1}, 5, "a2c141873b42123b1aa0a656c5464a6affa6d1aaac42abd3df2312221a862e9b"},
	{6, BeamConfig{Width: 5, RandomMoves: 3, Seed: 7}, 5, "411489034569a07c8fb736f0e4d489dd83c0fcf7a6adda2489737661fe817ecd"},
	{8, BeamConfig{Width: 8, RandomMoves: 2, RandomTrees: 3, Seed: 3}, 7, "8dc0e1f07235a28b7bd35d5af791b335bc40a1cb7e61d4beb24efcbcbc713abd"},
	{70, BeamConfig{Width: 2, RandomMoves: 1, RandomTrees: 1, Seed: 5}, 69, "ea9d3fee65742519bc4a865a0f3a2de2368abf0e925a8e5c8c9c76c6334267d5"},
}

func TestBeamSearchGolden(t *testing.T) {
	for _, g := range beamGolden {
		replay, rounds := BeamSearch(g.n, g.cfg)
		h := sha256.New()
		for _, tr := range replay.Trees {
			fmt.Fprintln(h, tr.Parents())
		}
		digest := hex.EncodeToString(h.Sum(nil))
		if rounds != g.rounds || digest != g.digest {
			t.Errorf("n=%d %+v: %d rounds, schedule %s; want %d rounds, schedule %s",
				g.n, g.cfg, rounds, digest, g.rounds, g.digest)
		}
	}
}
