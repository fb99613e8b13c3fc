package adversary

import (
	"fmt"
	"sort"
	"testing"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// This file holds allocating reference implementations — test oracles
// only — that the in-place adversaries must match tree for tree: the
// sort.SliceStable forms of AscendingPath and BlockLeader, and the
// allocating tree generators behind the random families.

// reachSets materializes the reach sets R_x (rows of the adjacency matrix)
// from a view's heard sets (columns): y ∈ R_x iff x ∈ K_y.
func reachSets(v core.View) []*bitset.Set {
	n := v.N()
	rows := make([]*bitset.Set, n)
	for x := 0; x < n; x++ {
		rows[x] = bitset.New(n)
	}
	for y := 0; y < n; y++ {
		v.Heard(y).ForEach(func(x int) bool {
			rows[x].Set(y)
			return true
		})
	}
	return rows
}

// heardCounts returns |K_y| for every y.
func heardCounts(v core.View) []int {
	out := make([]int, v.N())
	for y := range out {
		out[y] = v.Heard(y).Count()
	}
	return out
}

// ascendingPathOracle is AscendingPath by sort.SliceStable.
func ascendingPathOracle(v core.View) *tree.Tree {
	counts := heardCounts(v)
	order := make([]int, v.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })
	return tree.MustPath(order)
}

// blockLeaderOracle is BlockLeader by sort.SliceStable.
func blockLeaderOracle(v core.View) *tree.Tree {
	n := v.N()
	rows := reachSets(v)
	counts := heardCounts(v)
	leader, best := -1, -1
	for x := 0; x < n; x++ {
		if c := rows[x].Count(); c < n && c > best {
			leader, best = x, c
		}
	}
	if leader < 0 {
		return tree.IdentityPath(n)
	}
	var nonKnowers, knowers []int
	for y := 0; y < n; y++ {
		if v.Heard(y).Test(leader) {
			knowers = append(knowers, y)
		} else {
			nonKnowers = append(nonKnowers, y)
		}
	}
	byAscCount := func(s []int) {
		sort.SliceStable(s, func(a, b int) bool { return counts[s[a]] < counts[s[b]] })
	}
	byAscCount(nonKnowers)
	byAscCount(knowers)
	return tree.MustPath(append(nonKnowers, knowers...))
}

// resettable is the reuse contract under test (campaign.ReusableAdversary,
// redeclared to keep this package's tests free of a campaign dependency).
type resettable interface {
	core.Adversary
	Reset(src *rng.Source)
}

// oraclePair couples a per-trial reference adversary with the reusable
// adversary that must play its trees.
type oraclePair struct {
	name   string
	oracle func(src *rng.Source) core.Adversary
	reuse  resettable
}

func oraclePairs() []oraclePair {
	orNil := func(t *tree.Tree, err error) *tree.Tree {
		if err != nil {
			return nil
		}
		return t
	}
	return []oraclePair{
		{"random", func(src *rng.Source) core.Adversary {
			return Func(func(v core.View) *tree.Tree { return tree.Random(v.N(), src) })
		}, NewRandom(nil)},
		{"random-path", func(src *rng.Source) core.Adversary {
			return Func(func(v core.View) *tree.Tree { return tree.RandomPath(v.N(), src) })
		}, NewRandomPath(nil)},
		{"k-leaves", func(src *rng.Source) core.Adversary {
			return Func(func(v core.View) *tree.Tree { return orNil(tree.RandomWithLeaves(v.N(), 3, src)) })
		}, NewKLeaves(3, nil)},
		{"k-inner", func(src *rng.Source) core.Adversary {
			return Func(func(v core.View) *tree.Tree { return orNil(tree.RandomWithInner(v.N(), 2, src)) })
		}, NewKInner(2, nil)},
		{"ascending-path", func(*rng.Source) core.Adversary { return Func(ascendingPathOracle) }, &AscendingPath{}},
		{"block-leader", func(*rng.Source) core.Adversary { return Func(blockLeaderOracle) }, &BlockLeader{}},
		{"min-gain", func(*rng.Source) core.Adversary { return MinGain{} }, MinGain{}},
	}
}

// lockstep drives one engine with want's trees and checks that got plays
// the identical parent array every round.
func lockstep(t *testing.T, n int, want, got core.Adversary) {
	t.Helper()
	e := core.NewEngine(n)
	for !e.BroadcastDone() {
		if e.Round() > n*n {
			t.Fatalf("n=%d: no completion within n²+1 rounds", n)
		}
		w, g := want.Next(e), got.Next(e)
		if (w == nil) != (g == nil) {
			t.Fatalf("n=%d round %d: oracle %v, adversary %v", n, e.Round(), w, g)
		}
		if w == nil {
			return
		}
		samePath(t, fmt.Sprintf("n=%d round %d", n, e.Round()), g, w)
		e.Step(w)
	}
}

// samePath fails the test unless got and want have the same parent array.
func samePath(t *testing.T, what string, got, want *tree.Tree) {
	t.Helper()
	for y := 0; y < want.N(); y++ {
		if got.Parent(y) != want.Parent(y) {
			t.Fatalf("%s: parent[%d] = %d, oracle %d", what, y, got.Parent(y), want.Parent(y))
		}
	}
}

// TestReusableMatchesPlain: one reusable adversary, Reset per trial, plays
// exactly the trees of the allocating oracle built fresh per trial — the
// campaign pipeline's reuse rests on this.
func TestReusableMatchesPlain(t *testing.T) {
	for _, p := range oraclePairs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, n := range []int{5, 16, 31} {
				for trial := 0; trial < 6; trial++ {
					seed := uint64(n*1000 + trial)
					p.reuse.Reset(rng.New(seed))
					lockstep(t, n, p.oracle(rng.New(seed)), p.reuse)
				}
			}
		})
	}
}

// TestReusableMatchesPlainMultiWord runs the heard-count adversaries in
// lockstep with their oracles where a heard row is one word (63, 64) or
// several (65, 130, 256), with a partial (63, 65, 130) or full (64, 256)
// last word. Two trials per size, so the second starts while the
// adversary still holds the first trial's final state.
func TestReusableMatchesPlainMultiWord(t *testing.T) {
	for _, p := range oraclePairs() {
		if p.name != "ascending-path" && p.name != "block-leader" {
			continue
		}
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, n := range []int{63, 64, 65, 130, 256} {
				for trial := 0; trial < 2; trial++ {
					p.reuse.Reset(nil)
					lockstep(t, n, p.oracle(nil), p.reuse)
				}
			}
		})
	}
}

// TestReusableTwoPhasePathMatches checks the precomputed schedule against
// a per-round reconstruction, plus validation.
func TestReusableTwoPhasePathMatches(t *testing.T) {
	for _, n := range []int{4, 16, 33} {
		for _, cfg := range [][2]int{{n / 2, n / 2}, {1, n}, {0, 1}} {
			adv, err := NewTwoPhasePath(n, cfg[0], cfg[1])
			if err != nil {
				t.Fatal(err)
			}
			switchAt, prefix := cfg[0], cfg[1]
			oracle := Func(func(v core.View) *tree.Tree {
				if v.Round() < switchAt {
					return tree.IdentityPath(n)
				}
				var order []int
				for i := prefix - 1; i >= 0; i-- {
					order = append(order, i)
				}
				for i := prefix; i < n; i++ {
					order = append(order, i)
				}
				return tree.MustPath(order)
			})
			lockstep(t, n, oracle, adv)
		}
	}
	if _, err := NewTwoPhasePath(4, -1, 2); err == nil {
		t.Error("negative switch_at accepted")
	}
	if _, err := NewTwoPhasePath(4, 1, 5); err == nil {
		t.Error("prefix > n accepted")
	}
}

// TestReusableKInfeasible: the k families fail the run (nil tree) when k
// is infeasible at the engine's n.
func TestReusableKInfeasible(t *testing.T) {
	if tr := NewKLeaves(9, rng.New(1)).Next(core.NewEngine(4)); tr != nil {
		t.Errorf("infeasible k returned tree %v", tr)
	}
}
