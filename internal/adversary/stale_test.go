package adversary

import (
	"testing"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/core"
)

func TestStaleAscendingPathValidation(t *testing.T) {
	if _, err := NewStaleAscendingPath(-1); err == nil {
		t.Error("negative lag accepted")
	}
	if _, err := NewStaleAscendingPath(0); err != nil {
		t.Errorf("lag 0 rejected: %v", err)
	}
}

// TestStaleLagZeroMatchesAscendingPath: with no delay the stale adversary
// must be AscendingPath move for move. Two engines run in lockstep; every
// round both adversaries are asked for their tree and the parent arrays
// must agree.
func TestStaleLagZeroMatchesAscendingPath(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16, 33} {
		stale, err := NewStaleAscendingPath(0)
		if err != nil {
			t.Fatal(err)
		}
		ref := &AscendingPath{}
		eng := core.NewEngine(n)
		for round := 0; !eng.BroadcastDone() && round <= n*n; round++ {
			want := ref.Next(eng)
			got := stale.Next(eng)
			for y := 0; y < n; y++ {
				if want.Parent(y) != got.Parent(y) {
					t.Fatalf("n=%d round %d: stale(0) parent[%d]=%d, AscendingPath %d",
						n, round, y, got.Parent(y), want.Parent(y))
				}
			}
			eng.Step(want)
		}
	}
}

// TestStaleAscendingPathCompletesWithinBounds: lagged information still
// yields a valid adversary — every run completes, never beats the static
// floor from below... (it may; staleness can only weaken the heuristic's
// stalling, and a weaker adversary is still a valid one) — and never
// exceeds the paper's upper bound.
func TestStaleAscendingPathCompletesWithinBounds(t *testing.T) {
	for _, n := range []int{4, 9, 16, 32} {
		for _, lag := range []int{1, 2, 5, 50} {
			adv, err := NewStaleAscendingPath(lag)
			if err != nil {
				t.Fatal(err)
			}
			rounds, err := core.BroadcastTime(n, adv)
			if err != nil {
				t.Fatalf("n=%d lag=%d: %v", n, lag, err)
			}
			if rounds < 1 {
				t.Errorf("n=%d lag=%d: completed in %d rounds", n, lag, rounds)
			}
			if err := bounds.CheckSandwich(n, rounds); err != nil {
				t.Errorf("n=%d lag=%d: %v", n, lag, err)
			}
		}
	}
}

// TestStaleAscendingPathReusable: one instance driven across several
// trials (the batched pipeline's lifecycle) must match a freshly built
// adversary per trial.
func TestStaleAscendingPathReusable(t *testing.T) {
	const n, lag = 12, 3
	pooled, err := NewStaleAscendingPath(lag)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	for trial := 0; trial < 4; trial++ {
		fresh, err := NewStaleAscendingPath(lag)
		if err != nil {
			t.Fatal(err)
		}
		want, errA := core.BroadcastTime(n, fresh)
		pooled.Reset(nil)
		got, errB := runner.Run(n, pooled, core.Broadcast)
		if errA != nil || errB != nil || want != got {
			t.Fatalf("trial %d: fresh %d (%v), pooled %d (%v)", trial, want, errA, got, errB)
		}
	}
}
