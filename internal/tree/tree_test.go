package tree

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dyntreecast/internal/rng"
)

func TestNewValid(t *testing.T) {
	tests := []struct {
		name   string
		parent []int
		root   int
	}{
		{"single", []int{0}, 0},
		{"pathOf3", []int{0, 0, 1}, 0},
		{"starRoot2", []int{2, 2, 2}, 2},
		{"branching", []int{1, 1, 1, 0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := New(tt.parent)
			if err != nil {
				t.Fatalf("New(%v) error: %v", tt.parent, err)
			}
			if got := tr.Root(); got != tt.root {
				t.Errorf("Root() = %d, want %d", got, tt.root)
			}
			if got := tr.N(); got != len(tt.parent) {
				t.Errorf("N() = %d, want %d", got, len(tt.parent))
			}
		})
	}
}

func TestNewInvalid(t *testing.T) {
	tests := []struct {
		name   string
		parent []int
	}{
		{"noRoot", []int{1, 0}},
		{"twoRoots", []int{0, 1}},
		{"cycle", []int{0, 2, 3, 1}},
		{"outOfRangeHigh", []int{0, 5}},
		{"outOfRangeNegative", []int{0, -1}},
		{"selfCycleNotRoot", []int{0, 1, 1, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.parent)
			if err == nil {
				t.Fatalf("New(%v) accepted invalid tree", tt.parent)
			}
			if !errors.Is(err, ErrInvalidTree) {
				t.Errorf("error %v does not wrap ErrInvalidTree", err)
			}
		})
	}
}

func TestNewEmptyTree(t *testing.T) {
	tr, err := New(nil)
	if err != nil {
		t.Fatalf("New(nil) error: %v", err)
	}
	if tr.N() != 0 {
		t.Errorf("N() = %d, want 0", tr.N())
	}
}

func TestNewCopiesInput(t *testing.T) {
	parent := []int{0, 0}
	tr := MustNew(parent)
	parent[1] = 1
	if tr.Parent(1) != 0 {
		t.Error("Tree aliased caller's slice")
	}
}

func TestChildren(t *testing.T) {
	tr := MustNew([]int{1, 1, 1, 0, 0})
	children := tr.Children()
	want := [][]int{3: {}, 4: {}}
	_ = want
	if got := children[1]; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("children of root = %v, want [0 2]", got)
	}
	if got := children[0]; !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("children of 0 = %v, want [3 4]", got)
	}
	for _, leaf := range []int{2, 3, 4} {
		if len(children[leaf]) != 0 {
			t.Errorf("leaf %d has children %v", leaf, children[leaf])
		}
	}
}

func TestLeavesAndInner(t *testing.T) {
	tests := []struct {
		name   string
		tree   *Tree
		leaves []int
	}{
		{"single", MustNew([]int{0}), []int{0}},
		{"path", IdentityPath(4), []int{3}},
		{"star", mustStar(5, 0), []int{1, 2, 3, 4}},
		{"branching", MustNew([]int{1, 1, 1, 0, 0}), []int{2, 3, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tree.Leaves(); !reflect.DeepEqual(got, tt.leaves) {
				t.Errorf("Leaves() = %v, want %v", got, tt.leaves)
			}
			if got := tt.tree.NumLeaves(); got != len(tt.leaves) {
				t.Errorf("NumLeaves() = %d, want %d", got, len(tt.leaves))
			}
			if got := tt.tree.NumInner(); got != tt.tree.N()-len(tt.leaves) {
				t.Errorf("NumInner() = %d, want %d", got, tt.tree.N()-len(tt.leaves))
			}
		})
	}
}

func mustStar(n, root int) *Tree {
	s, err := Star(n, root)
	if err != nil {
		panic(err)
	}
	return s
}

func TestDepthHeight(t *testing.T) {
	tr := MustNew([]int{0, 0, 1, 2, 0}) // 0 -> {1,4}, 1 -> 2, 2 -> 3
	wantDepth := []int{0, 1, 2, 3, 1}
	for v, want := range wantDepth {
		if got := tr.Depth(v); got != want {
			t.Errorf("Depth(%d) = %d, want %d", v, got, want)
		}
	}
	if got := tr.Height(); got != 3 {
		t.Errorf("Height() = %d, want 3", got)
	}
	if got := MustNew([]int{0}).Height(); got != 0 {
		t.Errorf("Height of single node = %d, want 0", got)
	}
}

func TestIsPathIsStar(t *testing.T) {
	tests := []struct {
		name   string
		tree   *Tree
		isPath bool
		isStar bool
	}{
		{"single", MustNew([]int{0}), true, true},
		{"twoNodes", MustNew([]int{0, 0}), true, true},
		{"path4", IdentityPath(4), true, false},
		{"star4", mustStar(4, 0), false, true},
		{"branching", MustNew([]int{1, 1, 1, 0, 0}), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tree.IsPath(); got != tt.isPath {
				t.Errorf("IsPath() = %v, want %v", got, tt.isPath)
			}
			if got := tt.tree.IsStar(); got != tt.isStar {
				t.Errorf("IsStar() = %v, want %v", got, tt.isStar)
			}
		})
	}
}

func TestPathOrder(t *testing.T) {
	order := []int{2, 0, 3, 1}
	tr := MustPath(order)
	got, err := tr.PathOrder()
	if err != nil {
		t.Fatalf("PathOrder error: %v", err)
	}
	if !reflect.DeepEqual(got, order) {
		t.Errorf("PathOrder() = %v, want %v", got, order)
	}
	if _, err := mustStar(4, 0).PathOrder(); err == nil {
		t.Error("PathOrder on a star did not fail")
	}
}

func TestPathConstructor(t *testing.T) {
	tr := MustPath([]int{1, 0, 2})
	if tr.Root() != 1 {
		t.Errorf("Root() = %d, want 1", tr.Root())
	}
	if tr.Parent(0) != 1 || tr.Parent(2) != 0 {
		t.Errorf("unexpected parents: %v", tr.Parents())
	}
	if _, err := Path([]int{0, 0, 1}); err == nil {
		t.Error("Path accepted a non-permutation")
	}
	if _, err := Path([]int{0, 5}); err == nil {
		t.Error("Path accepted out-of-range vertices")
	}
}

func TestStarErrors(t *testing.T) {
	if _, err := Star(0, 0); err == nil {
		t.Error("Star(0,0) did not fail")
	}
	if _, err := Star(3, 5); err == nil {
		t.Error("Star with bad root did not fail")
	}
}

func TestBroom(t *testing.T) {
	tr, err := Broom([]int{0, 1, 2}, []int{3, 4})
	if err != nil {
		t.Fatalf("Broom error: %v", err)
	}
	if tr.Root() != 0 {
		t.Errorf("Root() = %d, want 0", tr.Root())
	}
	if tr.Parent(3) != 2 || tr.Parent(4) != 2 {
		t.Errorf("bristles not attached to handle end: %v", tr.Parents())
	}
	if got := tr.NumLeaves(); got != 2 {
		t.Errorf("NumLeaves() = %d, want 2", got)
	}
	if _, err := Broom(nil, []int{0}); err == nil {
		t.Error("Broom with empty handle did not fail")
	}
	if _, err := Broom([]int{0, 0}, []int{1}); err == nil {
		t.Error("Broom with repeated vertex did not fail")
	}
}

func TestCaterpillar(t *testing.T) {
	tr, err := Caterpillar([]int{0, 1}, [][]int{{2}, {3, 4}})
	if err != nil {
		t.Fatalf("Caterpillar error: %v", err)
	}
	if tr.Parent(2) != 0 || tr.Parent(3) != 1 || tr.Parent(4) != 1 {
		t.Errorf("legs misattached: %v", tr.Parents())
	}
	if _, err := Caterpillar([]int{0}, [][]int{{1}, {2}}); err == nil {
		t.Error("Caterpillar with mismatched legs did not fail")
	}
	if _, err := Caterpillar(nil, nil); err == nil {
		t.Error("Caterpillar with empty spine did not fail")
	}
}

func TestSpider(t *testing.T) {
	tr, err := Spider(0, [][]int{{1, 2}, {3}})
	if err != nil {
		t.Fatalf("Spider error: %v", err)
	}
	if tr.Parent(1) != 0 || tr.Parent(2) != 1 || tr.Parent(3) != 0 {
		t.Errorf("spider legs misattached: %v", tr.Parents())
	}
	if got := tr.NumLeaves(); got != 2 {
		t.Errorf("NumLeaves() = %d, want 2", got)
	}
}

func TestCompleteKAry(t *testing.T) {
	tr, err := CompleteKAry(7, 2)
	if err != nil {
		t.Fatalf("CompleteKAry error: %v", err)
	}
	if got := tr.Height(); got != 2 {
		t.Errorf("Height() = %d, want 2", got)
	}
	if got := tr.NumLeaves(); got != 4 {
		t.Errorf("NumLeaves() = %d, want 4", got)
	}
	if _, err := CompleteKAry(0, 2); err == nil {
		t.Error("CompleteKAry(0,2) did not fail")
	}
	if _, err := CompleteKAry(3, 0); err == nil {
		t.Error("CompleteKAry(3,0) did not fail")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := MustNew([]int{0, 0, 1})
	b := MustNew([]int{0, 0, 1})
	c := MustNew([]int{0, 0, 0})
	if !a.Equal(b) {
		t.Error("equal trees reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal trees reported equal")
	}
	if a.Key() != b.Key() {
		t.Error("equal trees have different keys")
	}
	if a.Key() == c.Key() {
		t.Error("unequal trees share a key")
	}
}

func TestPruferRoundTrip(t *testing.T) {
	// decode(encode(t), root) must reproduce t for assorted trees.
	trees := []*Tree{
		IdentityPath(2),
		IdentityPath(6),
		mustStar(6, 3),
		MustNew([]int{1, 1, 1, 0, 0}),
		MustNew([]int{0, 0, 1, 2, 0, 4, 4}),
	}
	for _, tr := range trees {
		seq := tr.Prufer()
		back, err := FromPrufer(seq, tr.N(), tr.Root())
		if err != nil {
			t.Fatalf("FromPrufer(%v) error: %v", seq, err)
		}
		if !back.Equal(tr) {
			t.Errorf("round trip of %v gave %v (seq %v)", tr, back, seq)
		}
	}
}

func TestPruferSequenceRoundTrip(t *testing.T) {
	// encode(decode(seq)) must reproduce seq: checks the bijection in the
	// other direction, exhaustively for n = 5.
	n := 5
	seq := make([]int, n-2)
	var rec func(i int)
	rec = func(i int) {
		if i == len(seq) {
			tr, err := FromPrufer(seq, n, 0)
			if err != nil {
				t.Fatalf("FromPrufer(%v): %v", seq, err)
			}
			if got := tr.Prufer(); !reflect.DeepEqual(got, seq) {
				t.Fatalf("Prufer(FromPrufer(%v)) = %v", seq, got)
			}
			return
		}
		for v := 0; v < n; v++ {
			seq[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

func TestFromPruferErrors(t *testing.T) {
	tests := []struct {
		name string
		seq  []int
		n    int
		root int
	}{
		{"badLength", []int{0}, 4, 0},
		{"badRoot", []int{0, 0}, 4, 4},
		{"badSymbol", []int{9, 0}, 4, 0},
		{"zeroN", nil, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromPrufer(tt.seq, tt.n, tt.root); err == nil {
				t.Error("no error")
			}
		})
	}
}

func TestEnumerateCounts(t *testing.T) {
	// Cayley: n^(n-1) rooted labeled trees, all distinct, all valid.
	for n := 1; n <= 5; n++ {
		seen := map[string]bool{}
		Enumerate(n, func(tr *Tree) bool {
			if tr.N() != n {
				t.Fatalf("n=%d: enumerated tree on %d vertices", n, tr.N())
			}
			if _, err := New(tr.Parents()); err != nil {
				t.Fatalf("n=%d: enumerated invalid tree %v: %v", n, tr, err)
			}
			key := tr.Key()
			if seen[key] {
				t.Fatalf("n=%d: duplicate tree %v", n, tr)
			}
			seen[key] = true
			return true
		})
		if want := int(Count(n)); len(seen) != want {
			t.Errorf("n=%d: enumerated %d trees, want %d", n, len(seen), want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	calls := 0
	Enumerate(4, func(*Tree) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

func TestCount(t *testing.T) {
	tests := []struct {
		n    int
		want int64
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 9}, {4, 64}, {5, 625}, {10, 1000000000},
	}
	for _, tt := range tests {
		if got := Count(tt.n); got != tt.want {
			t.Errorf("Count(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestRandomValidAndVaried(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 2, 3, 10, 50} {
		keys := map[string]bool{}
		for i := 0; i < 30; i++ {
			tr := Random(n, src)
			if _, err := New(tr.Parents()); err != nil {
				t.Fatalf("Random(%d) produced invalid tree: %v", n, err)
			}
			keys[tr.Key()] = true
		}
		if n >= 10 && len(keys) < 25 {
			t.Errorf("Random(%d): only %d distinct trees in 30 draws", n, len(keys))
		}
	}
}

func TestRandomUniformN3(t *testing.T) {
	// For n=3 there are 9 rooted trees; check each arrives with frequency
	// near 1/9 over many draws.
	src := rng.New(42)
	const draws = 18000
	counts := map[string]int{}
	for i := 0; i < draws; i++ {
		counts[Random(3, src).Key()]++
	}
	if len(counts) != 9 {
		t.Fatalf("saw %d distinct trees, want 9", len(counts))
	}
	want := draws / 9
	for k, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("tree %q: %d draws, want about %d", k, c, want)
		}
	}
}

func TestRandomPath(t *testing.T) {
	src := rng.New(5)
	tr := RandomPath(20, src)
	if !tr.IsPath() {
		t.Error("RandomPath did not return a path")
	}
	if tr.N() != 20 {
		t.Errorf("N() = %d, want 20", tr.N())
	}
}

func TestRandomWithLeaves(t *testing.T) {
	src := rng.New(9)
	for _, tt := range []struct{ n, k int }{
		{2, 1}, {5, 1}, {5, 4}, {10, 3}, {10, 9}, {30, 7}, {1, 1},
	} {
		for i := 0; i < 20; i++ {
			tr, err := RandomWithLeaves(tt.n, tt.k, src)
			if err != nil {
				t.Fatalf("RandomWithLeaves(%d,%d): %v", tt.n, tt.k, err)
			}
			if _, err := New(tr.Parents()); err != nil {
				t.Fatalf("RandomWithLeaves(%d,%d) invalid: %v", tt.n, tt.k, err)
			}
			if got := tr.NumLeaves(); got != tt.k {
				t.Fatalf("RandomWithLeaves(%d,%d) has %d leaves", tt.n, tt.k, got)
			}
		}
	}
}

func TestRandomWithLeavesErrors(t *testing.T) {
	src := rng.New(9)
	for _, tt := range []struct{ n, k int }{
		{0, 1}, {1, 2}, {5, 0}, {5, 5}, {5, -1},
	} {
		if _, err := RandomWithLeaves(tt.n, tt.k, src); err == nil {
			t.Errorf("RandomWithLeaves(%d,%d) did not fail", tt.n, tt.k)
		}
	}
}

func TestRandomWithInner(t *testing.T) {
	src := rng.New(10)
	for _, tt := range []struct{ n, m int }{{1, 0}, {5, 1}, {10, 4}} {
		tr, err := RandomWithInner(tt.n, tt.m, src)
		if err != nil {
			t.Fatalf("RandomWithInner(%d,%d): %v", tt.n, tt.m, err)
		}
		if got := tr.NumInner(); got != tt.m {
			t.Errorf("RandomWithInner(%d,%d) has %d inner vertices", tt.n, tt.m, got)
		}
	}
	if _, err := RandomWithInner(1, 1, src); err == nil {
		t.Error("RandomWithInner(1,1) did not fail")
	}
}

func TestPropertyRandomTreeRoundTrips(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(40)
		tr := Random(n, src)
		back, err := FromPrufer(tr.Prufer(), n, tr.Root())
		return err == nil && back.Equal(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLeafInnerPartition(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(60)
		tr := Random(n, src)
		leaves := tr.Leaves()
		// leaves sorted, within range, and NumLeaves + NumInner == n.
		if !sort.IntsAreSorted(leaves) {
			return false
		}
		return tr.NumLeaves()+tr.NumInner() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDepthConsistentWithParent(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(40)
		tr := Random(n, src)
		for v := 0; v < n; v++ {
			if v == tr.Root() {
				if tr.Depth(v) != 0 {
					return false
				}
				continue
			}
			if tr.Depth(v) != tr.Depth(tr.Parent(v))+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOrderContract: every way to obtain a *Tree yields one whose Order
// is a child-before-parent permutation ending at the root — the order
// core.Engine applies rounds along without checking it.
func TestOrderContract(t *testing.T) {
	must := func(tr *Tree, err error) func() (*Tree, error) {
		return func() (*Tree, error) { return tr, err }
	}
	var b Buf
	src := rng.New(11)
	cases := []struct {
		name  string
		build func() (*Tree, error)
	}{
		{"New/empty", func() (*Tree, error) { return New(nil) }},
		{"New/single", func() (*Tree, error) { return New([]int{0}) }},
		{"New/bushy", func() (*Tree, error) { return New([]int{3, 3, 0, 3, 2, 2, 4}) }},
		{"MustNew", func() (*Tree, error) { return MustNew([]int{1, 1, 1, 0, 3}), nil }},
		{"FromPrufer/n1", func() (*Tree, error) { return FromPrufer(nil, 1, 0) }},
		{"FromPrufer/n2", func() (*Tree, error) { return FromPrufer(nil, 2, 1) }},
		{"FromPrufer/n8", func() (*Tree, error) { return FromPrufer([]int{3, 3, 7, 0, 0, 5}, 8, 4) }},
		{"Random/n1", func() (*Tree, error) { return Random(1, src), nil }},
		{"Random/n97", func() (*Tree, error) { return Random(97, src), nil }},
		{"RandomPath/n1", func() (*Tree, error) { return RandomPath(1, src), nil }},
		{"RandomPath/n40", func() (*Tree, error) { return RandomPath(40, src), nil }},
		{"RandomWithLeaves", func() (*Tree, error) { return RandomWithLeaves(30, 7, src) }},
		{"RandomWithInner", func() (*Tree, error) { return RandomWithInner(30, 5, src) }},
		{"Path/empty", must(Path(nil))},
		{"Path", must(Path([]int{4, 2, 0, 3, 1}))},
		{"MustPath", func() (*Tree, error) { return MustPath([]int{1, 0, 2}), nil }},
		{"IdentityPath", func() (*Tree, error) { return IdentityPath(9), nil }},
		{"Star/n1", must(Star(1, 0))},
		{"Star", must(Star(9, 4))},
		{"Broom", must(Broom([]int{5, 0, 2}, []int{1, 3, 4}))},
		{"Caterpillar", must(Caterpillar([]int{2, 0, 4}, [][]int{{1}, nil, {3, 5}}))},
		{"Spider", must(Spider(3, [][]int{{0, 1}, {2}, {4, 5, 6}}))},
		{"CompleteKAry", must(CompleteKAry(31, 3))},
		{"RandomInto/n1", func() (*Tree, error) { return RandomInto(&b, 1, src), nil }},
		{"RandomInto/n2", func() (*Tree, error) { return RandomInto(&b, 2, src), nil }},
		{"RandomInto/n64", func() (*Tree, error) { return RandomInto(&b, 64, src), nil }},
		{"RandomPathInto/n1", func() (*Tree, error) { return RandomPathInto(&b, 1, src), nil }},
		{"RandomPathInto/n33", func() (*Tree, error) { return RandomPathInto(&b, 33, src), nil }},
		{"PathInto/n0", func() (*Tree, error) { return PathInto(&b, nil), nil }},
		{"PathInto/n1", func() (*Tree, error) { return PathInto(&b, []int{0}), nil }},
		{"PathInto", func() (*Tree, error) { return PathInto(&b, []int{3, 1, 4, 0, 2}), nil }},
		{"RandomWithLeavesInto/n1", func() (*Tree, error) { return RandomWithLeavesInto(&b, 1, 1, src) }},
		{"RandomWithLeavesInto/k1", func() (*Tree, error) { return RandomWithLeavesInto(&b, 20, 1, src) }},
		{"RandomWithLeavesInto/k19", func() (*Tree, error) { return RandomWithLeavesInto(&b, 20, 19, src) }},
		{"RandomWithInnerInto/n1", func() (*Tree, error) { return RandomWithInnerInto(&b, 1, 0, src) }},
		{"RandomWithInnerInto", func() (*Tree, error) { return RandomWithInnerInto(&b, 50, 6, src) }},
	}
	for _, c := range cases {
		tr, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Run(c.name, func(t *testing.T) { checkOrder(t, tr) })
	}

	// Enumerate builds through FromPrufer and MustNew.
	for n := 1; n <= 5; n++ {
		Enumerate(n, func(tr *Tree) bool {
			checkOrder(t, tr)
			return true
		})
	}

	// One Buf reused across shrinking and growing n by every generator.
	var r Buf
	for _, n := range []int{40, 3, 1, 17, 2, 64, 5} {
		checkOrder(t, RandomInto(&r, n, src))
		checkOrder(t, RandomPathInto(&r, n, src))
		checkOrder(t, PathInto(&r, src.Perm(n)))
		k := max(1, n/3)
		tr, err := RandomWithLeavesInto(&r, n, k, src)
		if err != nil {
			t.Fatalf("RandomWithLeavesInto(%d, %d): %v", n, k, err)
		}
		checkOrder(t, tr)
		tr, err = RandomWithInnerInto(&r, n, n-k, src)
		if err != nil {
			t.Fatalf("RandomWithInnerInto(%d, %d): %v", n, n-k, err)
		}
		checkOrder(t, tr)
		checkOrder(t, PathInto(&r, nil))
	}
}

func BenchmarkRandom(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Random(n, src)
			}
		})
	}
}

func BenchmarkPruferEncode(b *testing.B) {
	src := rng.New(2)
	tr := Random(1024, src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Prufer()
	}
}

func benchName(n int) string {
	switch n {
	case 16:
		return "n16"
	case 128:
		return "n128"
	default:
		return "n1024"
	}
}
