package core

import (
	"fmt"
	"sort"
	"testing"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// This file is the packed-engine half of the differential harness: a
// deliberately naive pre-packing reference implementation of the model
// (plain bool matrices, explicit double buffering, no bit tricks, no
// shared ordering code) and a battery that drives it in lockstep with the
// word-packed Engine and the blocked MatrixEngine at sizes up to n = 256 —
// including sizes that are not multiples of 64, where the word kernels'
// tail masking and the 64-row band edges of the blocked transpose product
// are exercised. Per round it pins heard-set equality and the
// broadcast/gossip predicates across all three implementations.
// differential_test.go covers the same engines against the operational
// goroutine system at small n; this battery covers the packed layouts at
// the sizes where packing actually matters.

// scalarRef is the reference engine: heard[y][x] reports x ∈ K_y, updated
// by copying the whole state and applying K_y ← K_y ∪ K_parent(y) per bit
// against the copy. Nothing here shares code with Engine, MatrixEngine,
// bitset, tree.DepthOrder or the orders trees carry (tree.Tree.Order), so
// agreement is evidence, not tautology.
type scalarRef struct {
	n     int
	heard [][]bool
	prev  [][]bool
}

func newScalarRef(n int) *scalarRef {
	s := &scalarRef{n: n, heard: make([][]bool, n), prev: make([][]bool, n)}
	for y := 0; y < n; y++ {
		s.heard[y] = make([]bool, n)
		s.prev[y] = make([]bool, n)
		s.heard[y][y] = true
	}
	return s
}

func (s *scalarRef) Step(t *tree.Tree) {
	for y := range s.heard {
		copy(s.prev[y], s.heard[y])
	}
	for y, p := range t.Parents() {
		if p == y {
			continue
		}
		for x, v := range s.prev[p] {
			if v {
				s.heard[y][x] = true
			}
		}
	}
}

// BroadcastDone reports whether some value x has reached every process.
func (s *scalarRef) BroadcastDone() bool {
	for x := 0; x < s.n; x++ {
		all := true
		for y := 0; y < s.n && all; y++ {
			all = s.heard[y][x]
		}
		if all {
			return true
		}
	}
	return false
}

// GossipDone reports whether every process has heard every value.
func (s *scalarRef) GossipDone() bool {
	for _, row := range s.heard {
		for _, v := range row {
			if !v {
				return false
			}
		}
	}
	return true
}

// packRow packs the reference's heard row into words for a cheap word-level
// comparison against the live packed rows (packing here is comparison
// plumbing, not reference semantics).
func (s *scalarRef) packRow(y int, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for x, v := range s.heard[y] {
		if v {
			dst[x>>6] |= 1 << (uint(x) & 63)
		}
	}
}

// diffSizes are the battery sizes: straddling one-word, exact-multiple and
// tail-masked layouts, up to the issue's n = 256 bar.
func diffSizes() []int {
	return []int{16, 63, 64, 65, 100, 129, 256}
}

// diffBudget bounds a schedule's length: generous for the goal times every
// generator can reach (broadcast ≤ ⌈(1+√2)n−1⌉ by Theorem 3.1; the random
// generators complete gossip well inside it too), while keeping the
// deterministic stallers — which never gossip — from running to the n²+1
// trivial budget.
func diffBudget(n int) int { return 5*n/2 + 16 }

func TestPackedEnginesMatchScalarReference(t *testing.T) {
	for _, gen := range scheduleGens() {
		stalls := gen.name == "identity-path" || gen.name == "ascending-heard-path"
		for _, n := range diffSizes() {
			seeds := []uint64{1, 2}
			if n >= 100 {
				seeds = seeds[:1] // bound runtime under -race at the big sizes
			}
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/n%d/seed%d", gen.name, n, seed), func(t *testing.T) {
					lockstepScalar(t, gen, n, rng.New(seed*10007+uint64(n)), stalls)
				})
			}
		}
	}
}

// TestEngineTrustsGeneratorOrders adds the in-place generators to the
// battery. Engine applies a round along whatever order the tree carries,
// and these trees come straight from a reused tree.Buf whose generators
// write that order themselves, so each row pins one generator's order
// against the reference, which orders nothing.
func TestEngineTrustsGeneratorOrders(t *testing.T) {
	var buf tree.Buf
	var perm []int
	gens := []struct {
		gen    scheduleGen
		stalls bool
	}{
		{scheduleGen{"random-tree-into", func(_ View, src *rng.Source, n int) *tree.Tree {
			return tree.RandomInto(&buf, n, src)
		}}, false},
		{scheduleGen{"random-path-into", func(_ View, src *rng.Source, n int) *tree.Tree {
			return tree.RandomPathInto(&buf, n, src)
		}}, false},
		{scheduleGen{"k-leaves-into", func(_ View, src *rng.Source, n int) *tree.Tree {
			tr, err := tree.RandomWithLeavesInto(&buf, n, max(1, min(4, n-1)), src)
			if err != nil {
				panic(err)
			}
			return tr
		}}, false},
		{scheduleGen{"ascending-heard-path-into", func(v View, _ *rng.Source, n int) *tree.Tree {
			// The ascending-path heuristic's construction: the path
			// ordered by ascending heard-set size (ties by id).
			perm = tree.Grow(&perm, n)
			for i := range perm {
				perm[i] = i
			}
			sort.SliceStable(perm, func(a, b int) bool {
				return v.Heard(perm[a]).Count() < v.Heard(perm[b]).Count()
			})
			return tree.PathInto(&buf, perm)
		}}, true},
	}
	for _, g := range gens {
		for _, n := range []int{1, 2, 63, 64, 65, 200} {
			t.Run(fmt.Sprintf("%s/n%d", g.gen.name, n), func(t *testing.T) {
				lockstepScalar(t, g.gen, n, rng.New(uint64(n)*7919+1), g.stalls)
			})
		}
	}
}

// lockstepScalar drives gen's schedule through Engine, MatrixEngine and
// scalarRef in lockstep and pins per-round heard-set equality and the
// broadcast/gossip predicates across all three. It stops once gossip
// holds, or once broadcast holds for a staller (a schedule that never
// gossips), and fails if broadcast misses the budget.
func lockstepScalar(t *testing.T, gen scheduleGen, n int, src *rng.Source, stalls bool) {
	t.Helper()
	eng := NewEngine(n)
	mat := NewMatrixEngine(n)
	ref := newScalarRef(n)

	stride := bitset.WordsFor(n)
	want := make([]uint64, stride)
	budget := diffBudget(n)
	broadcastRound := -1
	for round := 1; round <= budget; round++ {
		tr := gen.next(eng, src, n)
		eng.Step(tr)
		mat.Step(tr)
		ref.Step(tr)

		// Per-round heard-set equality, word-exact, for every process:
		// reference vs packed Engine rows and vs the MatrixEngine's
		// columns.
		for y := 0; y < n; y++ {
			ref.packRow(y, want)
			if !bitset.EqualWords(eng.Heard(y).Words(), want) {
				t.Fatalf("round %d: Engine K_%d = %v, reference %v",
					round, y, eng.Heard(y), bitset.Wrap(n, want))
			}
			if got := mat.Heard(y); !bitset.EqualWords(got.Words(), want) {
				t.Fatalf("round %d: MatrixEngine K_%d = %v, reference %v",
					round, y, got, bitset.Wrap(n, want))
			}
		}

		// Per-round goal predicates across all three.
		wb, wg := ref.BroadcastDone(), ref.GossipDone()
		if eb, eg := eng.BroadcastDone(), eng.GossipDone(); eb != wb || eg != wg {
			t.Fatalf("round %d: Engine (broadcast=%v gossip=%v), reference (%v %v)",
				round, eb, eg, wb, wg)
		}
		if mb, mg := mat.BroadcastDone(), mat.GossipDone(); mb != wb || mg != wg {
			t.Fatalf("round %d: MatrixEngine (broadcast=%v gossip=%v), reference (%v %v)",
				round, mb, mg, wb, wg)
		}

		if wb && broadcastRound < 0 {
			broadcastRound = round
		}
		if wg {
			return // all goals reached in agreement
		}
		if wb && stalls {
			return // stallers never gossip
		}
	}
	if broadcastRound < 0 {
		t.Fatalf("broadcast incomplete after %d rounds (budget too small for %s at n=%d)",
			budget, gen.name, n)
	}
}

// TestPackedRunnerMatchesReferenceRounds locks the pooled Runner's round
// counts at packed sizes to the scalar reference: the whole trial pipeline
// — Reset, Step, done predicates — agrees with the naive model, not just
// a single Step.
func TestPackedRunnerMatchesReferenceRounds(t *testing.T) {
	r := NewRunner()
	for _, n := range []int{63, 65, 129} {
		for seed := uint64(1); seed <= 3; seed++ {
			// Replay the exact tree sequence the runner consumed into the
			// reference, then compare t*.
			var replay []*tree.Tree
			adv := adversaryFunc(func(v View) *tree.Tree {
				tr := tree.Random(v.N(), rng.New(seed*31+uint64(v.Round())))
				replay = append(replay, tr)
				return tr
			})
			got, err := r.Run(n, adv, Broadcast)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			ref := newScalarRef(n)
			rounds := 0
			for !ref.BroadcastDone() {
				if rounds >= len(replay) {
					t.Fatalf("n=%d seed=%d: reference needs more than the %d recorded rounds", n, seed, len(replay))
				}
				ref.Step(replay[rounds])
				rounds++
			}
			if rounds != got {
				t.Errorf("n=%d seed=%d: Runner t* = %d, reference %d", n, seed, got, rounds)
			}
			replay = nil
		}
	}
}
