package tree

import (
	"testing"

	"dyntreecast/internal/rng"
)

// checkChildBeforeParent verifies the Fill contract on one tree: the
// result is a permutation of [0,n) and every vertex appears strictly
// before its parent.
func checkChildBeforeParent(t *testing.T, tr *Tree, order []int) {
	t.Helper()
	n := tr.N()
	if len(order) != n {
		t.Fatalf("order length %d, want %d", len(order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
		pos[v] = i
	}
	for v := 0; v < n; v++ {
		if p := tr.Parent(v); p != v && pos[v] >= pos[p] {
			t.Fatalf("vertex %d (pos %d) not before parent %d (pos %d) in %v",
				v, pos[v], p, pos[p], tr)
		}
	}
}

// checkOrder verifies the Order contract on one tree: the order it
// carries is a child-before-parent permutation of [0,n) ending at the
// root.
func checkOrder(t *testing.T, tr *Tree) {
	t.Helper()
	order := tr.Order()
	checkChildBeforeParent(t, tr, order)
	if n := tr.N(); n > 0 && order[n-1] != tr.Root() {
		t.Fatalf("order %v of %v does not end at the root", order, tr)
	}
}

func TestDepthOrderFamilies(t *testing.T) {
	var o DepthOrder
	trees := []*Tree{
		MustNew([]int{0}),
		IdentityPath(8),
		MustPath([]int{3, 1, 0, 2}),
	}
	if s, err := Star(9, 4); err == nil {
		trees = append(trees, s)
	}
	if k, err := CompleteKAry(31, 3); err == nil {
		trees = append(trees, k)
	}
	for _, tr := range trees {
		checkChildBeforeParent(t, tr, o.Fill(tr.Parents()))
	}
}

func TestDepthOrderRandom(t *testing.T) {
	var o DepthOrder
	src := rng.New(42)
	// Interleave sizes to exercise scratch reuse across n, including the
	// shrink-then-grow path.
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%97
		tr := Random(n, src)
		checkChildBeforeParent(t, tr, o.Fill(tr.Parents()))
	}
}

func TestDepthOrderExhaustiveSmall(t *testing.T) {
	var o DepthOrder
	for n := 1; n <= 5; n++ {
		Enumerate(n, func(tr *Tree) bool {
			checkChildBeforeParent(t, tr, o.Fill(tr.Parents()))
			return true
		})
	}
}

func TestDepthOrderEmpty(t *testing.T) {
	var o DepthOrder
	if got := o.Fill(nil); len(got) != 0 {
		t.Fatalf("Fill(nil) = %v, want empty", got)
	}
}

func TestDepthOrderNoAllocSteadyState(t *testing.T) {
	var o DepthOrder
	tr := Random(64, rng.New(7))
	o.Fill(tr.Parents()) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		o.Fill(tr.Parents())
	})
	if allocs != 0 {
		t.Fatalf("Fill allocated %.1f/op in steady state, want 0", allocs)
	}
}
