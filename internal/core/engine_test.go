package core

import (
	"errors"
	"testing"
	"testing/quick"

	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestNewEngineInitialState(t *testing.T) {
	e := NewEngine(4)
	if e.Round() != 0 {
		t.Errorf("Round() = %d, want 0", e.Round())
	}
	for y := 0; y < 4; y++ {
		k := e.Heard(y)
		if k.Count() != 1 || !k.Test(y) {
			t.Errorf("K_%d = %v, want {%d}", y, k, y)
		}
	}
	if e.BroadcastDone() {
		t.Error("broadcast done at round 0 for n=4")
	}
	if e.GossipDone() {
		t.Error("gossip done at round 0 for n=4")
	}
}

func TestNewEngineN1(t *testing.T) {
	e := NewEngine(1)
	if !e.BroadcastDone() {
		t.Error("n=1 should be broadcast-complete at round 0")
	}
	if !e.GossipDone() {
		t.Error("n=1 should be gossip-complete at round 0")
	}
}

func TestNewEnginePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEngine(0)
}

func TestStepSingleHop(t *testing.T) {
	// One round along path 0→1→2→3: each process hears its parent's
	// initial value only (no cascade).
	e := NewEngine(4)
	e.Step(tree.IdentityPath(4))
	wants := [][]int{{0}, {0, 1}, {1, 2}, {2, 3}}
	for y, want := range wants {
		got := e.Heard(y).Slice()
		if len(got) != len(want) {
			t.Fatalf("K_%d = %v, want %v", y, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("K_%d = %v, want %v", y, got, want)
			}
		}
	}
}

func TestStepSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEngine(3).Step(tree.IdentityPath(4))
}

func TestStaticPathBroadcastIsNMinus1(t *testing.T) {
	// §2 of the paper: repeating the same path gives t* = n−1.
	for _, n := range []int{2, 3, 5, 10, 33} {
		e := NewEngine(n)
		p := tree.IdentityPath(n)
		rounds := 0
		for !e.BroadcastDone() {
			e.Step(p)
			rounds++
			if rounds > n {
				t.Fatalf("n=%d: static path exceeded n rounds", n)
			}
		}
		if rounds != n-1 {
			t.Errorf("n=%d: static path t* = %d, want %d", n, rounds, n-1)
		}
		if got := e.Broadcasters().Slice(); len(got) != 1 || got[0] != 0 {
			t.Errorf("n=%d: broadcasters = %v, want [0]", n, got)
		}
	}
}

func TestStaticStarBroadcastIsOneRound(t *testing.T) {
	star, err := tree.Star(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(7)
	e.Step(star)
	if !e.BroadcastDone() {
		t.Fatal("star did not complete broadcast in one round")
	}
	if got := e.Broadcasters().Slice(); len(got) != 1 || got[0] != 3 {
		t.Errorf("broadcasters = %v, want [3]", got)
	}
}

func TestEnginesAgreeRandom(t *testing.T) {
	// Differential: Engine (columns) vs MatrixEngine (rows) on random
	// tree sequences.
	src := rng.New(21)
	for _, n := range []int{2, 5, 16, 40} {
		col := NewEngine(n)
		row := NewMatrixEngine(n)
		for r := 0; r < 3*n; r++ {
			tr := tree.Random(n, src)
			col.Step(tr)
			row.Step(tr)
			if !col.Matrix().Equal(row.Matrix()) {
				t.Fatalf("n=%d round %d: engines diverged", n, r+1)
			}
			if col.BroadcastDone() != row.BroadcastDone() {
				t.Fatalf("n=%d round %d: broadcast predicates diverged", n, r+1)
			}
		}
	}
}

func TestEnginesAgreeExhaustiveSmall(t *testing.T) {
	// For n=3, check a couple of rounds over every pair of trees.
	const n = 3
	tree.Enumerate(n, func(t1 *tree.Tree) bool {
		tree.Enumerate(n, func(t2 *tree.Tree) bool {
			col := NewEngine(n)
			row := NewMatrixEngine(n)
			col.Step(t1)
			row.Step(t1)
			col.Step(t2)
			row.Step(t2)
			if !col.Matrix().Equal(row.Matrix()) {
				t.Fatalf("diverged on %v then %v:\n%v\nvs\n%v",
					t1, t2, col.Matrix(), row.Matrix())
			}
			return true
		})
		return true
	})
}

func TestBroadcastersMatchFullRows(t *testing.T) {
	src := rng.New(5)
	e := NewEngine(9)
	for r := 0; r < 30; r++ {
		e.Step(tree.Random(9, src))
		want := e.Matrix().FullRows()
		got := e.Broadcasters().Slice()
		if len(got) != len(want) {
			t.Fatalf("round %d: broadcasters %v != full rows %v", r+1, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: broadcasters %v != full rows %v", r+1, got, want)
			}
		}
	}
}

func TestHeardCounts(t *testing.T) {
	e := NewEngine(4)
	e.Step(tree.IdentityPath(4))
	got := e.HeardCounts()
	want := []int{1, 2, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("HeardCounts = %v, want %v", got, want)
			break
		}
	}
}

func TestMonotoneAndReflexiveInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(20)
		e := NewEngine(n)
		prev := e.Matrix()
		for r := 0; r < n; r++ {
			e.Step(tree.Random(n, src))
			cur := e.Matrix()
			if !prev.SubsetOf(cur) || !cur.IsReflexive() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// staticAdversary repeats one tree forever.
type staticAdversary struct{ t *tree.Tree }

func (a staticAdversary) Next(View) *tree.Tree { return a.t }

// badAdversary returns a wrong-size tree.
type badAdversary struct{}

func (badAdversary) Next(View) *tree.Tree { return tree.IdentityPath(2) }

func TestRunBroadcast(t *testing.T) {
	res, err := Run(6, staticAdversary{tree.IdentityPath(6)}, Broadcast)
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	if !res.Completed || res.Rounds != 5 {
		t.Errorf("Result = %+v, want completed in 5 rounds", res)
	}
	if len(res.Broadcasters) != 1 || res.Broadcasters[0] != 0 {
		t.Errorf("Broadcasters = %v, want [0]", res.Broadcasters)
	}
	if res.Goal != Broadcast || res.N != 6 {
		t.Errorf("Result metadata wrong: %+v", res)
	}
}

func TestRunGossipStaticPath(t *testing.T) {
	// Static identity path: node n−1's value never travels anywhere, so
	// gossip cannot complete; Run must hit the budget.
	_, err := Run(4, staticAdversary{tree.IdentityPath(4)}, Gossip, WithMaxRounds(50))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestRunGossipCompletes(t *testing.T) {
	// Alternating path directions completes gossip quickly.
	alt := adversaryFunc(func(v View) *tree.Tree {
		if v.Round()%2 == 0 {
			return tree.IdentityPath(v.N())
		}
		order := make([]int, v.N())
		for i := range order {
			order[i] = v.N() - 1 - i
		}
		return tree.MustPath(order)
	})
	res, err := Run(5, alt, Gossip)
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	if !res.Completed {
		t.Error("gossip did not complete")
	}
	if res.FinalStats.MinCol != 5 {
		t.Errorf("gossip finished with MinCol %d, want 5", res.FinalStats.MinCol)
	}
}

// adversaryFunc adapts a function to Adversary.
type adversaryFunc func(View) *tree.Tree

func (f adversaryFunc) Next(v View) *tree.Tree { return f(v) }

func TestRunBadTree(t *testing.T) {
	_, err := Run(5, badAdversary{}, Broadcast)
	if !errors.Is(err, ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

func TestRunMaxRounds(t *testing.T) {
	// A root-1 path on n=2 repeated forever: node 1 broadcasts in one
	// round, so to force a stall use gossip (value of 0 never reaches 1).
	order := []int{1, 0}
	res, err := Run(2, staticAdversary{tree.MustPath(order)}, Gossip, WithMaxRounds(7))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if res.Completed || res.Rounds != 7 {
		t.Errorf("partial result = %+v, want 7 incomplete rounds", res)
	}
}

func TestRunObserver(t *testing.T) {
	var rounds []int
	_, err := Run(4, staticAdversary{tree.IdentityPath(4)}, Broadcast,
		WithObserver(func(r int, tr *tree.Tree, e *Engine) {
			rounds = append(rounds, r)
			if tr == nil || e == nil {
				t.Error("observer got nil arguments")
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("observer called %d times, want 3", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Errorf("observer round %d = %d", i, r)
		}
	}
}

func TestBroadcastTime(t *testing.T) {
	got, err := BroadcastTime(8, staticAdversary{tree.IdentityPath(8)})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("BroadcastTime = %d, want 7", got)
	}
}

func TestRunN1(t *testing.T) {
	res, err := Run(1, staticAdversary{tree.MustNew([]int{0})}, Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 0 {
		t.Errorf("n=1 result = %+v, want immediate completion", res)
	}
}

func TestGoalString(t *testing.T) {
	if Broadcast.String() != "broadcast" || Gossip.String() != "gossip" {
		t.Error("Goal.String() wrong")
	}
	if Goal(9).String() == "" {
		t.Error("unknown goal has empty string")
	}
}

func TestDeepestFirstOrderProperty(t *testing.T) {
	// Every vertex must appear before its parent in the application order
	// Step uses (the order the tree carries, tree.Tree.Order).
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(30)
		tr := tree.Random(n, src)
		order := tr.Order()
		if len(order) != n || order[n-1] != tr.Root() {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < n; v++ {
			if p := tr.Parent(v); p != v && pos[v] > pos[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(benchSize(n), func(b *testing.B) {
			src := rng.New(1)
			e := NewEngine(n)
			trees := make([]*tree.Tree, 64)
			for i := range trees {
				trees[i] = tree.Random(n, src)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(trees[i%len(trees)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

func BenchmarkMatrixEngineStep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(benchSize(n), func(b *testing.B) {
			src := rng.New(1)
			e := NewMatrixEngine(n)
			trees := make([]*tree.Tree, 64)
			for i := range trees {
				trees[i] = tree.Random(n, src)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(trees[i%len(trees)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

func benchSize(n int) string {
	switch n {
	case 64:
		return "n64"
	case 256:
		return "n256"
	default:
		return "n1024"
	}
}
