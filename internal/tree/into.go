package tree

import (
	"fmt"

	"dyntreecast/internal/rng"
)

// This file implements the in-place tree generators of the batched trial
// pipeline (DESIGN.md §3d). Each ...Into function writes its result into a
// caller-owned Buf instead of allocating a fresh Tree, and the classic
// allocating forms (Random, RandomPath, RandomWithLeaves, RandomWithInner)
// are thin wrappers over them — one implementation, so the two spellings
// consume random streams identically and campaigns stay byte-for-byte
// reproducible whichever path runs them.

// Buf is a reusable tree buffer: the parent array and child-before-parent
// order of the generated tree, plus the scratch the generators need (the
// Prüfer sequence and degrees, a permutation, skeleton leaves and a
// mark array). Every generator writes the order it already knows while
// building the tree, so no consumer recomputes one. Buffers grow to the
// largest n seen and are reused across calls, so a warm Buf generates
// trees with zero allocations.
//
// The *Tree returned by a ...Into call aliases the Buf: it is valid only
// until the Buf's next generation, and callers must neither mutate nor
// retain it beyond that. This deliberately relaxes Tree's usual
// immutability — the simulation engines only read a round's tree during
// Step, which is exactly the lifetime the in-place adversaries need.
// The zero value is ready to use.
type Buf struct {
	t Tree
	// generator scratch
	seq, deg, perm, sl []int
	mark               []bool
}

// Tree returns the most recently generated tree (nil parent array before
// the first generation). Valid until the next generation into b.
func (b *Buf) Tree() *Tree { return &b.t }

// Grow returns *p resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified. It is the scratch
// growth policy of the whole in-place pipeline — the generators here and
// the reusable adversaries share it, so a change to the policy (e.g.
// amortized doubling) lands everywhere at once.
func Grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// parentBuf returns b's parent array resized to n.
func (b *Buf) parentBuf(n int) []int { return Grow(&b.t.parent, n) }

// orderBuf returns b's child-before-parent order resized to n.
func (b *Buf) orderBuf(n int) []int { return Grow(&b.t.order, n) }

// single resets b to the one-vertex tree.
func (b *Buf) single() *Tree {
	b.parentBuf(1)[0] = 0
	b.orderBuf(1)[0] = 0
	b.t.root = 0
	return &b.t
}

// RandomInto generates a uniformly random rooted labeled tree on n
// vertices into b — the same distribution and random-stream consumption
// as Random, which wraps it — and returns b's tree.
func RandomInto(b *Buf, n int, src *rng.Source) *Tree {
	if n <= 0 {
		panic("tree: Random needs n >= 1")
	}
	if n == 1 {
		return b.single()
	}
	seq := Grow(&b.seq, n-2)
	for i := range seq {
		seq[i] = src.Intn(n)
	}
	b.decodePrufer(seq, n, src.Intn(n))
	return &b.t
}

// decodePrufer decodes a Prüfer sequence and roots the tree at root,
// writing the parent array and its child-before-parent order into b.
// Inputs must already be validated (every symbol and root in [0,n),
// len(seq) == n−2, n >= 2).
//
// Leaf elimination links each removed leaf straight to its sequence
// symbol, which roots the tree at the last surviving vertex and makes the
// elimination order child-before-parent for that rooting. Re-rooting at
// root only reverses the root→last path, so the order becomes the
// off-path vertices in elimination order followed by the path
// deepest-first. FromPrufer decodes through this method too.
func (b *Buf) decodePrufer(seq []int, n, root int) {
	deg := Grow(&b.deg, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, s := range seq {
		deg[s]++
	}
	parent := b.parentBuf(n)
	order := b.orderBuf(n)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for i, s := range seq {
		parent[leaf] = s
		order[i] = leaf
		deg[leaf]-- // consumed; degree drops to 0 so later scans skip it
		deg[s]--
		if deg[s] == 1 && s < ptr {
			leaf = s
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Two vertices remain: leaf and the last survivor, which roots the
	// tree as decoded so far. The survivor is always n−1: every step
	// removes the smallest of at least two leaves, never the largest
	// label.
	last := n - 1
	parent[leaf] = last
	parent[last] = last
	order[n-2], order[n-1] = leaf, last

	// Mark the root→last path (deg is spent scratch by now), then keep
	// the off-path vertices in elimination order.
	for v := root; v != last; v = parent[v] {
		deg[v] = -1
	}
	deg[last] = -1
	w := 0
	for _, v := range order {
		if deg[v] != -1 {
			order[w] = v
			w++
		}
	}
	// Reverse the path so it hangs from root, writing it deepest-first
	// behind the off-path vertices: v_i at depth i lands at n−1−i.
	prev, v := root, root
	for i := n - 1; i >= w; i-- {
		next := parent[v]
		parent[v] = prev
		order[i] = v
		prev, v = v, next
	}
	b.t.root = root
}

// PathInto writes the path tree visiting order[0] → order[1] → … into b
// and returns b's tree. Like MustPath it panics if order is not a
// permutation of [0,n) — the in-place generators are the trusted hot
// path, not a validation boundary.
func PathInto(b *Buf, order []int) *Tree {
	n := len(order)
	if n == 0 {
		b.t.parent = b.t.parent[:0]
		b.t.order = b.t.order[:0]
		b.t.root = 0
		return &b.t
	}
	mark := Grow(&b.mark, n)
	for i := range mark {
		mark[i] = false
	}
	for _, v := range order {
		if v < 0 || v >= n || mark[v] {
			panic(fmt.Sprintf("tree: PathInto order is not a permutation of [0,%d)", n))
		}
		mark[v] = true
	}
	parent := b.parentBuf(n)
	parent[order[0]] = order[0]
	for i := 1; i < n; i++ {
		parent[order[i]] = order[i-1]
	}
	// The reversed path lists every vertex right before its parent.
	ord := b.orderBuf(n)
	for i, v := range order {
		ord[n-1-i] = v
	}
	b.t.root = order[0]
	return &b.t
}

// RandomPathInto generates a directed path through a uniform random
// permutation into b — same distribution and stream consumption as
// RandomPath, which wraps it.
func RandomPathInto(b *Buf, n int, src *rng.Source) *Tree {
	perm := Grow(&b.perm, n)
	for i := range perm {
		perm[i] = i
	}
	src.Shuffle(perm)
	return PathInto(b, perm)
}

// RandomWithLeavesInto generates a random rooted tree on n vertices with
// exactly k leaves into b — same distribution (the skeleton-plus-
// attachment construction of RandomWithLeaves, which wraps it), same
// stream consumption, same error cases.
func RandomWithLeavesInto(b *Buf, n, k int, src *rng.Source) (*Tree, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("%w: need n >= 1", ErrInvalidTree)
	case n == 1:
		if k != 1 {
			return nil, fmt.Errorf("%w: n=1 has exactly 1 leaf, not %d", ErrInvalidTree, k)
		}
		return b.single(), nil
	case k < 1 || k > n-1:
		return nil, fmt.Errorf("%w: n=%d needs 1 <= k <= %d leaves, got %d", ErrInvalidTree, n, n-1, k)
	}
	m := n - k // inner vertex count, >= 1
	perm := Grow(&b.perm, n)
	for i := range perm {
		perm[i] = i
	}
	src.Shuffle(perm)
	inner, leaves := perm[:m], perm[m:]

	// Build a random skeleton over the inner vertices with at most k
	// skeleton-leaves, so each skeleton-leaf can absorb a real leaf. A
	// random attachment tree ("random recursive tree") tends to have about
	// m/2 leaves; retry a few times, then fall back to a path skeleton
	// (exactly one skeleton-leaf), which always works since k >= 1.
	parent := b.parentBuf(n)
	hasChild := Grow(&b.mark, n)
	skeletonLeaves := func(build func()) []int {
		build()
		for i := range hasChild {
			hasChild[i] = false
		}
		for _, v := range inner {
			if p := parent[v]; p != v {
				hasChild[p] = true
			}
		}
		sl := b.sl[:0]
		for _, v := range inner {
			if !hasChild[v] {
				sl = append(sl, v)
			}
		}
		b.sl = sl
		return sl
	}

	var sl []int
	for attempt := 0; attempt < 8; attempt++ {
		sl = skeletonLeaves(func() {
			parent[inner[0]] = inner[0]
			for i := 1; i < m; i++ {
				parent[inner[i]] = inner[src.Intn(i)]
			}
		})
		if len(sl) <= k {
			break
		}
	}
	if len(sl) > k {
		sl = skeletonLeaves(func() {
			parent[inner[0]] = inner[0]
			for i := 1; i < m; i++ {
				parent[inner[i]] = inner[i-1]
			}
		})
	}

	// Give each skeleton-leaf one real leaf, then scatter the rest.
	for i, v := range leaves {
		if i < len(sl) {
			parent[v] = sl[i]
		} else {
			parent[v] = inner[src.Intn(m)]
		}
	}
	// Leaves hang from inner vertices, and every skeleton parent has a
	// lower index in inner than its child, so the leaves followed by the
	// inner vertices in reverse list every vertex before its parent.
	ord := b.orderBuf(n)
	copy(ord, leaves)
	for i, v := range inner {
		ord[n-1-i] = v
	}
	b.t.root = inner[0]
	return &b.t, nil
}

// RandomWithInnerInto generates a random rooted tree on n vertices with
// exactly m inner (non-leaf) vertices into b. See RandomWithLeavesInto.
func RandomWithInnerInto(b *Buf, n, m int, src *rng.Source) (*Tree, error) {
	if n == 1 {
		if m != 0 {
			return nil, fmt.Errorf("%w: n=1 has 0 inner vertices, not %d", ErrInvalidTree, m)
		}
		return b.single(), nil
	}
	return RandomWithLeavesInto(b, n, n-m, src)
}
