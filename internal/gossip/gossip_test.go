package gossip

import (
	"errors"
	"testing"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestStallerBlocksGossipForever(t *testing.T) {
	// The witness for unbounded adversarial gossip (§5 discussion): the
	// star root broadcasts immediately, yet gossip never completes.
	for _, n := range []int{2, 5, 10} {
		_, err := Time(n, Staller{}, core.WithMaxRounds(200))
		if !errors.Is(err, core.ErrMaxRounds) {
			t.Errorf("n=%d: err = %v, want ErrMaxRounds", n, err)
		}
		// Broadcast, by contrast, completes in one round.
		b, err := core.BroadcastTime(n, Staller{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b != 1 {
			t.Errorf("n=%d: staller broadcast time = %d, want 1", n, b)
		}
	}
}

func TestGossipCompletesUnderRandomAdversary(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{2, 6, 16} {
		g, err := Time(n, adversary.NewRandom(src))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A heard set at most doubles per round (one parent), so gossip
		// needs at least ⌈log₂ n⌉ rounds.
		floor := 0
		for 1<<floor < n {
			floor++
		}
		if g < floor {
			t.Errorf("n=%d: gossip in %d rounds, below log floor %d", n, g, floor)
		}
	}
}

func TestBothTimesOrdering(t *testing.T) {
	// Broadcast is a prefix condition of gossip: broadcast round <=
	// gossip round, and both are positive for n >= 2.
	src := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		b, g, err := BothTimes(8, adversary.NewRandom(src))
		if err != nil {
			t.Fatal(err)
		}
		if b < 1 || g < b {
			t.Errorf("broadcast %d, gossip %d: want 1 <= b <= g", b, g)
		}
	}
}

func TestBothTimesAlternatingPaths(t *testing.T) {
	// Deterministic check: alternating path directions on n=4.
	alt := adversary.Func(func(v core.View) *tree.Tree {
		if v.Round()%2 == 0 {
			return tree.IdentityPath(v.N())
		}
		order := make([]int, v.N())
		for i := range order {
			order[i] = v.N() - 1 - i
		}
		return tree.MustPath(order)
	})
	b, g, err := BothTimes(4, alt)
	if err != nil {
		t.Fatal(err)
	}
	if b != 3 {
		t.Errorf("broadcast = %d, want 3 (identity path completes at n-1)", b)
	}
	if g <= b {
		t.Errorf("gossip = %d, want > broadcast %d", g, b)
	}
}

func TestBothTimesStallReturnsError(t *testing.T) {
	b, _, err := BothTimes(3, Staller{}, core.WithMaxRounds(50))
	if !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if b != 1 {
		t.Errorf("broadcast completed at %d, want 1 even when gossip stalls", b)
	}
}
