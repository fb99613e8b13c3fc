package tree

// DepthOrder is reusable scratch for computing child-before-parent vertex
// orders from a parent array. Applying a round in place needs such an
// order: writing K_y (or the transposed word-column y) before any child
// reads it would leak post-round state into the round, so every vertex
// must be processed before its parent. Its users are the Tree
// constructors, which record the order Tree.Order returns (the in-place
// generators write theirs directly); boolmat's ApplyTree, which keeps its
// own pass so the MatrixEngine oracle does not trust a tree's order; and
// the benchmark's per-round ordering probe. A reverse breadth-first
// traversal over child buckets gives the order with four sequential
// passes — no per-vertex up-walks — and the zero value is ready to use;
// the scratch grows to the largest n seen and is reused across calls, so
// steady state allocates nothing.
type DepthOrder struct {
	order []int
	cnt   []int
	start []int
	kids  []int
}

// Fill computes a permutation of [0,n) in which every vertex appears
// before its parent (a reversed BFS from the root, so depths are
// non-increasing along the permutation), for n = len(parents).
// parents must be a valid rooted-tree parent array as
// produced by Tree.Parents: exactly one root with parents[root] == root,
// all vertices reaching it. The returned slice aliases the receiver's
// scratch and is valid until the next Fill.
func (o *DepthOrder) Fill(parents []int) []int {
	n := len(parents)
	if n == 0 {
		return o.order[:0]
	}
	o.grow(n)
	cnt, start, kids, order := o.cnt[:n], o.start[:n], o.kids[:n], o.order[:n]

	// Pass 1: child counts and the root.
	for i := range cnt {
		cnt[i] = 0
	}
	root := 0
	for v, p := range parents {
		if p == v {
			root = v
		} else {
			cnt[p]++
		}
	}
	// Pass 2: bucket offsets.
	idx := 0
	for v := 0; v < n; v++ {
		start[v] = idx
		idx += cnt[v]
	}
	// Pass 3: fill child buckets, advancing start as the write cursor so
	// afterwards start[v] is the END of v's bucket (begin = start[v]-cnt[v]).
	for v, p := range parents {
		if p != v {
			kids[start[p]] = v
			start[p]++
		}
	}
	// Pass 4: BFS from the root written back-to-front, so reading order
	// forward yields leaves-before-root.
	order[n-1] = root
	w := n - 2
	for i := n - 1; i > w; i-- {
		v := order[i]
		for k := start[v] - cnt[v]; k < start[v]; k++ {
			order[w] = kids[k]
			w--
		}
	}
	return order
}

func (o *DepthOrder) grow(n int) {
	if cap(o.order) >= n {
		return
	}
	o.order = make([]int, n)
	o.cnt = make([]int, n)
	o.start = make([]int, n)
	o.kids = make([]int, n)
}
