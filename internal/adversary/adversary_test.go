package adversary

import (
	"errors"
	"fmt"
	"testing"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestStaticPathBroadcast(t *testing.T) {
	for _, n := range []int{2, 5, 12} {
		got, err := core.BroadcastTime(n, Static{Tree: tree.IdentityPath(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != bounds.StaticPath(n) {
			t.Errorf("n=%d: static path t* = %d, want %d", n, got, n-1)
		}
	}
}

func TestFuncAdapter(t *testing.T) {
	calls := 0
	adv := Func(func(v core.View) *tree.Tree {
		calls++
		return tree.IdentityPath(v.N())
	})
	if _, err := core.BroadcastTime(4, adv); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("Func called %d times, want 3", calls)
	}
}

func TestCycleAlternates(t *testing.T) {
	a := tree.IdentityPath(3)
	b := tree.MustPath([]int{2, 1, 0})
	var seen []*tree.Tree
	_, err := core.Run(3, Cycle{Trees: []*tree.Tree{a, b}}, core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			seen = append(seen, tr)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("run too short: %d rounds", len(seen))
	}
	if seen[0] != a || seen[1] != b {
		t.Error("Cycle did not alternate trees in order")
	}
}

func TestCycleEmptyFailsRun(t *testing.T) {
	_, err := core.Run(3, Cycle{}, core.Broadcast)
	if !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

func TestReplayRepeatsLast(t *testing.T) {
	// Schedule of one reversed path; replay must repeat it and finish in
	// n−1 rounds.
	rev := tree.MustPath([]int{3, 2, 1, 0})
	got, err := core.BroadcastTime(4, Replay{Trees: []*tree.Tree{rev}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("t* = %d, want 3", got)
	}
}

func TestRandomAdversaryWithinBounds(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{2, 8, 32} {
		for trial := 0; trial < 5; trial++ {
			got, err := core.BroadcastTime(n, NewRandom(src))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := bounds.CheckSandwich(n, got); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}

func TestRandomPathAdversaryWithinBounds(t *testing.T) {
	src := rng.New(8)
	for _, n := range []int{2, 8, 32} {
		got, err := core.BroadcastTime(n, NewRandomPath(src))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestKLeavesPlaysOnlyKLeafTrees(t *testing.T) {
	src := rng.New(9)
	const n, k = 12, 3
	_, err := core.Run(n, NewKLeaves(k, src), core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			if got := tr.NumLeaves(); got != k {
				t.Errorf("round %d: tree has %d leaves, want %d", r, got, k)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLeavesInfeasibleFailsRun(t *testing.T) {
	src := rng.New(9)
	_, err := core.Run(3, NewKLeaves(5, src), core.Broadcast)
	if !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

func TestKInnerPlaysOnlyKInnerTrees(t *testing.T) {
	src := rng.New(10)
	const n, k = 12, 4
	_, err := core.Run(n, NewKInner(k, src), core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			if got := tr.NumInner(); got != k {
				t.Errorf("round %d: tree has %d inner nodes, want %d", r, got, k)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAscendingPathWithinBounds(t *testing.T) {
	for _, n := range []int{2, 6, 20, 50} {
		got, err := core.BroadcastTime(n, &AscendingPath{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if got < bounds.StaticPath(n)/2 {
			t.Errorf("n=%d: AscendingPath t* = %d suspiciously low", n, got)
		}
	}
}

func TestBlockLeaderFreezesLeader(t *testing.T) {
	// After a BlockLeader round, the pre-round leader's reach must not
	// have grown.
	for _, n := range []int{8, 130} {
		e := core.NewEngine(n)
		e.Step(tree.IdentityPath(n)) // create a leader
		adv := &BlockLeader{}
		for r := 0; r < 10 && !e.BroadcastDone(); r++ {
			leader, before := leaderReach(e)
			e.Step(adv.Next(e))
			after := reachSets(e)[leader].Count()
			if after != before {
				t.Fatalf("n=%d round %d: leader %d reach grew %d -> %d", n, r, leader, before, after)
			}
		}
	}
}

// TestBlockLeaderReusedAcrossN: one BlockLeader plays the oracle's trees
// through trials at shrinking and growing n, two trials per size.
func TestBlockLeaderReusedAcrossN(t *testing.T) {
	adv := &BlockLeader{}
	for _, n := range []int{130, 7, 200, 64} {
		for trial := 0; trial < 2; trial++ {
			adv.Reset(nil)
			lockstep(t, n, Func(blockLeaderOracle), adv)
		}
	}
}

// TestBlockLeaderViewJumps: one BlockLeader is asked in turn about two
// Engines in different states and a MatrixEngine (whose Heard builds a
// fresh set per call), so consecutive views are unrelated states, and
// must play the oracle's tree for each.
func TestBlockLeaderViewJumps(t *testing.T) {
	type view interface {
		core.View
		Step(*tree.Tree)
		BroadcastDone() bool
	}
	for _, n := range []int{65, 130} {
		src := rng.New(uint64(n))
		a, b, m := core.NewEngine(n), core.NewEngine(n), core.NewMatrixEngine(n)
		for r := 0; r < n/2; r++ {
			a.Step(tree.Random(n, src))
		}
		m.Step(tree.IdentityPath(n))
		views := []view{a, b, m}
		adv := &BlockLeader{}
		for r := 0; r < 3*n; r++ {
			live := 0
			for i, v := range views {
				if v.BroadcastDone() {
					continue
				}
				live++
				got, want := adv.Next(v), blockLeaderOracle(v)
				samePath(t, fmt.Sprintf("n=%d round %d view %d", n, r, i), got, want)
				if i == 1 {
					v.Step(want)
				} else {
					v.Step(tree.RandomPath(n, src))
				}
			}
			if live == 0 {
				break
			}
		}
	}
}

func leaderReach(v core.View) (int, int) {
	rows := reachSets(v)
	leader, best := -1, -1
	for x := 0; x < v.N(); x++ {
		if c := rows[x].Count(); c < v.N() && c > best {
			leader, best = x, c
		}
	}
	return leader, best
}

func TestBlockLeaderWithinBounds(t *testing.T) {
	for _, n := range []int{2, 6, 20, 50} {
		got, err := core.BroadcastTime(n, &BlockLeader{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestTwoPhasePath(t *testing.T) {
	const n = 10
	adv, err := NewTwoPhasePath(n, n/2, n/2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.BroadcastTime(n, adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := bounds.CheckSandwich(n, got); err != nil {
		t.Error(err)
	}
	// Note: naive phase switching is WEAKER than the static path (the
	// reversed prefix creates a fresh fast spreader); the schedule exists
	// as a documented negative result, so only the sandwich is asserted.
	if got < 1 {
		t.Errorf("two-phase t* = %d, want >= 1", got)
	}
}

// TestTwoPhasePathWrongNFailsRun: the precomputed trees are sized for the
// constructor's n, so driving the schedule at another n fails the run with
// core.ErrBadTree instead of panicking.
func TestTwoPhasePathWrongNFailsRun(t *testing.T) {
	adv, err := NewTwoPhasePath(7, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.BroadcastTime(5, adv); !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}
