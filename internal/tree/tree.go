// Package tree implements rooted labeled trees on the vertex set [n] =
// {0, …, n−1}, the round graphs of the dynamic-tree broadcast model.
//
// A tree is stored as a parent array: Parent(i) is the parent of i, and the
// root is its own parent. In the broadcast model every edge is directed
// parent → child (information flows away from the root) and every node
// additionally carries a self-loop; the self-loops are implicit here and are
// materialized by the simulation engines.
//
// The package provides validation, structural queries (leaves, inner nodes,
// height, depth), the standard tree families used by the paper and by the
// Zeiner–Schwarz–Schmid lower-bound constructions (paths, stars, brooms,
// caterpillars, spiders, complete k-ary trees), a Prüfer-sequence bijection
// for uniform random generation and exhaustive enumeration, and generators
// restricted to a fixed number of leaves or inner nodes (the restricted
// adversary classes of [Zeiner et al. 2019]).
package tree

import (
	"errors"
	"fmt"
	"strings"

	"dyntreecast/internal/rng"
)

// ErrInvalidTree is wrapped by all validation failures in this package.
var ErrInvalidTree = errors.New("invalid rooted tree")

// Tree is an immutable rooted labeled tree on {0,…,n−1}.
//
// Construct with New (validating), one of the family constructors, or the
// random/enumeration helpers. The zero value is the empty tree on zero
// vertices.
//
// Every constructor also records a child-before-parent order of the
// vertices (see Order), so consumers that apply a round in place never
// recompute one.
type Tree struct {
	parent []int
	root   int
	order  []int
}

// newTree wraps a validated parent array and its root into a Tree, taking
// ownership of parent and computing the child-before-parent order once.
// It is the constructors' single ordering path; the in-place generators
// (into.go) write the orders they already know instead.
func newTree(parent []int, root int) *Tree {
	var o DepthOrder
	return &Tree{parent: parent, root: root, order: o.Fill(parent)}
}

// New builds a tree from a parent array. parent[i] is the parent of node i;
// the root must satisfy parent[root] == root, and exactly one such node may
// exist. Every node must reach the root by following parents. The slice is
// copied; the caller keeps ownership of its argument.
func New(parent []int) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return &Tree{}, nil
	}
	root := -1
	for i, p := range parent {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("%w: parent[%d] = %d out of range [0,%d)", ErrInvalidTree, i, p, n)
		}
		if p == i {
			if root >= 0 {
				return nil, fmt.Errorf("%w: two roots %d and %d", ErrInvalidTree, root, i)
			}
			root = i
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("%w: no root (no fixed point in parent array)", ErrInvalidTree)
	}
	// Check that every node reaches the root. state: 0 unvisited, 1 on
	// current path, 2 known-good.
	state := make([]uint8, n)
	state[root] = 2
	for i := 0; i < n; i++ {
		if state[i] != 0 {
			continue
		}
		v := i
		for state[v] == 0 {
			state[v] = 1
			v = parent[v]
		}
		if state[v] == 1 {
			return nil, fmt.Errorf("%w: cycle through node %d", ErrInvalidTree, v)
		}
		v = i
		for state[v] == 1 {
			state[v] = 2
			v = parent[v]
		}
	}
	p := make([]int, n)
	copy(p, parent)
	return newTree(p, root), nil
}

// MustNew is New but panics on error. For tests and literals.
func MustNew(parent []int) *Tree {
	t, err := New(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root vertex. It panics on the empty tree.
func (t *Tree) Root() int {
	if len(t.parent) == 0 {
		panic("tree: Root of empty tree")
	}
	return t.root
}

// Parent returns the parent of v (the root is its own parent).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Parents returns the underlying parent array. The caller must not mutate
// the returned slice; Tree is shared freely across engines.
func (t *Tree) Parents() []int { return t.parent }

// Order returns a permutation of the vertices in which every vertex comes
// before its parent and the root comes last. core.Engine applies a round
// in place along it: a vertex's row is updated before its parent's, so
// every parent row read is still the pre-round value. Which such order
// a tree carries depends on how it was built; Equal, Key and String
// ignore it. The caller must not mutate the returned slice.
func (t *Tree) Order() []int { return t.order }

// Children returns, for each vertex, the slice of its children, computed in
// O(n). The root is not a child of itself.
func (t *Tree) Children() [][]int {
	n := len(t.parent)
	counts := make([]int, n)
	for v, p := range t.parent {
		if v != p {
			counts[p]++
		}
	}
	children := make([][]int, n)
	for v, c := range counts {
		if c > 0 {
			children[v] = make([]int, 0, c)
		}
	}
	for v, p := range t.parent {
		if v != p {
			children[p] = append(children[p], v)
		}
	}
	return children
}

// Leaves returns the vertices with no children, in increasing order. For
// n == 1 the root is a leaf.
func (t *Tree) Leaves() []int {
	n := len(t.parent)
	hasChild := make([]bool, n)
	for v, p := range t.parent {
		if v != p {
			hasChild[p] = true
		}
	}
	leaves := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !hasChild[v] {
			leaves = append(leaves, v)
		}
	}
	return leaves
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.Leaves()) }

// NumInner returns the number of inner (non-leaf) vertices.
func (t *Tree) NumInner() int { return t.N() - t.NumLeaves() }

// Depth returns the distance from the root to v (root has depth 0).
func (t *Tree) Depth(v int) int {
	d := 0
	for v != t.parent[v] {
		v = t.parent[v]
		d++
	}
	return d
}

// Height returns the maximum depth over all vertices; 0 for n <= 1.
func (t *Tree) Height() int {
	n := len(t.parent)
	if n == 0 {
		return 0
	}
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[t.root] = 0
	h := 0
	for v := 0; v < n; v++ {
		// Walk up until a node of known depth, then unwind.
		var stack []int
		u := v
		for depth[u] < 0 {
			stack = append(stack, u)
			u = t.parent[u]
		}
		d := depth[u]
		for i := len(stack) - 1; i >= 0; i-- {
			d++
			depth[stack[i]] = d
		}
		if depth[v] > h {
			h = depth[v]
		}
	}
	return h
}

// IsPath reports whether the tree is a directed path (every vertex has at
// most one child).
func (t *Tree) IsPath() bool {
	n := len(t.parent)
	childCount := make([]int, n)
	for v, p := range t.parent {
		if v != p {
			childCount[p]++
			if childCount[p] > 1 {
				return false
			}
		}
	}
	return true
}

// IsStar reports whether every non-root vertex is a child of the root.
func (t *Tree) IsStar() bool {
	for v, p := range t.parent {
		if v != p && p != t.root {
			return false
		}
	}
	return true
}

// Equal reports whether t and o are the same labeled tree.
func (t *Tree) Equal(o *Tree) bool {
	if t.N() != o.N() {
		return false
	}
	for i, p := range t.parent {
		if o.parent[i] != p {
			return false
		}
	}
	return true
}

// PathOrder returns the vertices of a path tree in root-to-leaf order. It
// returns an error if the tree is not a path.
func (t *Tree) PathOrder() ([]int, error) {
	if !t.IsPath() {
		return nil, fmt.Errorf("%w: not a path", ErrInvalidTree)
	}
	n := len(t.parent)
	order := make([]int, 0, n)
	next := make([]int, n) // next[v] = unique child of v, or -1
	for i := range next {
		next[i] = -1
	}
	for v, p := range t.parent {
		if v != p {
			next[p] = v
		}
	}
	for v := t.root; v != -1; v = next[v] {
		order = append(order, v)
	}
	return order, nil
}

// String renders the parent array compactly, e.g. "root=0 [0 0 1]".
func (t *Tree) String() string {
	if len(t.parent) == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "root=%d [", t.root)
	for i, p := range t.parent {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	b.WriteByte(']')
	return b.String()
}

// Key returns a compact comparable key identifying the labeled tree, for
// use as a map key in enumeration and memoization. Two trees have equal
// keys iff they are Equal.
func (t *Tree) Key() string {
	// Parent values fit in a byte up to n = 256, which covers every
	// exhaustive use; beyond that fall back to a spaced rendering.
	n := len(t.parent)
	if n <= 256 {
		b := make([]byte, n)
		for i, p := range t.parent {
			b[i] = byte(p)
		}
		return string(b)
	}
	return t.String()
}

// Path returns the path tree visiting order[0] → order[1] → … . order must
// be a permutation of [0,n).
func Path(order []int) (*Tree, error) {
	n := len(order)
	if err := checkPerm(order); err != nil {
		return nil, err
	}
	parent := make([]int, n)
	if n == 0 {
		return &Tree{}, nil
	}
	parent[order[0]] = order[0]
	for i := 1; i < n; i++ {
		parent[order[i]] = order[i-1]
	}
	return newTree(parent, order[0]), nil
}

// MustPath is Path but panics on error.
func MustPath(order []int) *Tree {
	t, err := Path(order)
	if err != nil {
		panic(err)
	}
	return t
}

// IdentityPath returns the path 0 → 1 → … → n−1.
func IdentityPath(n int) *Tree {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return MustPath(order)
}

// Star returns the star with the given root and all other vertices as its
// children.
func Star(n, root int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: star needs n >= 1", ErrInvalidTree)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: star root %d out of range [0,%d)", ErrInvalidTree, root, n)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = root
	}
	return newTree(parent, root), nil
}

// Broom returns a broom: a path through handle (root first) whose last
// vertex is the parent of every vertex in bristles. handle and bristles
// together must partition [0,n) and handle must be non-empty.
func Broom(handle, bristles []int) (*Tree, error) {
	if len(handle) == 0 {
		return nil, fmt.Errorf("%w: broom needs a non-empty handle", ErrInvalidTree)
	}
	n := len(handle) + len(bristles)
	all := make([]int, 0, n)
	all = append(all, handle...)
	all = append(all, bristles...)
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, n)
	parent[handle[0]] = handle[0]
	for i := 1; i < len(handle); i++ {
		parent[handle[i]] = handle[i-1]
	}
	last := handle[len(handle)-1]
	for _, b := range bristles {
		parent[b] = last
	}
	return newTree(parent, handle[0]), nil
}

// Caterpillar returns a caterpillar: a path through spine (root first) with
// legs[i] attached as children of spine[i]. spine plus all legs must
// partition [0,n).
func Caterpillar(spine []int, legs [][]int) (*Tree, error) {
	if len(spine) == 0 {
		return nil, fmt.Errorf("%w: caterpillar needs a non-empty spine", ErrInvalidTree)
	}
	if len(legs) != len(spine) {
		return nil, fmt.Errorf("%w: caterpillar needs one leg set per spine vertex (got %d for %d)",
			ErrInvalidTree, len(legs), len(spine))
	}
	all := make([]int, 0, len(spine))
	all = append(all, spine...)
	for _, l := range legs {
		all = append(all, l...)
	}
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, len(all))
	parent[spine[0]] = spine[0]
	for i := 1; i < len(spine); i++ {
		parent[spine[i]] = spine[i-1]
	}
	for i, l := range legs {
		for _, v := range l {
			parent[v] = spine[i]
		}
	}
	return newTree(parent, spine[0]), nil
}

// Spider returns a spider: legs (vertex-disjoint paths) hanging from the
// root. root plus all legs must partition [0,n).
func Spider(root int, legs [][]int) (*Tree, error) {
	all := []int{root}
	for _, l := range legs {
		all = append(all, l...)
	}
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, len(all))
	parent[root] = root
	for _, l := range legs {
		prev := root
		for _, v := range l {
			parent[v] = prev
			prev = v
		}
	}
	return newTree(parent, root), nil
}

// CompleteKAry returns the complete k-ary tree on n vertices in level
// order: vertex 0 is the root and vertex i has parent (i−1)/k.
func CompleteKAry(n, k int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: k-ary tree needs n >= 1", ErrInvalidTree)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k-ary tree needs k >= 1", ErrInvalidTree)
	}
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = (i - 1) / k
	}
	return newTree(parent, 0), nil
}

func checkPerm(vs []int) error {
	n := len(vs)
	seen := make([]bool, n)
	for _, v := range vs {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrInvalidTree, v, n)
		}
		if seen[v] {
			return fmt.Errorf("%w: vertex %d repeated", ErrInvalidTree, v)
		}
		seen[v] = true
	}
	return nil
}

// FromPrufer decodes a Prüfer sequence into an unrooted labeled tree and
// roots it at root. seq has length n−2 for a tree on n ≥ 2 vertices; each
// entry must lie in [0,n). This is the standard bijection: rooted labeled
// trees on [n] correspond exactly to (sequence, root) pairs, giving
// Cayley's n^(n−1) count.
func FromPrufer(seq []int, n, root int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: FromPrufer needs n >= 1", ErrInvalidTree)
	}
	if len(seq) != n-2 && !(n <= 2 && len(seq) == 0) {
		return nil, fmt.Errorf("%w: Prüfer sequence length %d, want %d", ErrInvalidTree, len(seq), n-2)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d out of range [0,%d)", ErrInvalidTree, root, n)
	}
	if n == 1 {
		return newTree([]int{0}, 0), nil
	}
	for _, s := range seq {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: Prüfer symbol %d out of range [0,%d)", ErrInvalidTree, s, n)
		}
	}
	// The decoding itself lives in Buf.decodePrufer (into.go), shared with
	// the in-place generators so the two paths cannot drift; detached so
	// the returned tree doesn't pin the decoder's scratch.
	var b Buf
	b.decodePrufer(seq, n, root)
	return b.t.detached(), nil
}

// Prufer encodes the tree's underlying unrooted labeled tree as a Prüfer
// sequence of length n−2 (empty for n ≤ 2). Together with the root it
// uniquely determines the rooted tree; see FromPrufer.
func (t *Tree) Prufer() []int {
	n := len(t.parent)
	if n <= 2 {
		return nil
	}
	// Undirected adjacency via degrees and a "neighbor xor" trick is
	// possible, but plain adjacency lists are clearer.
	adj := make([][]int, n)
	for v, p := range t.parent {
		if v != p {
			adj[v] = append(adj[v], p)
			adj[p] = append(adj[p], v)
		}
	}
	degree := make([]int, n)
	for v := range adj {
		degree[v] = len(adj[v])
	}
	removed := make([]bool, n)
	seq := make([]int, 0, n-2)
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for len(seq) < n-2 {
		// The unique remaining neighbor of leaf.
		nb := -1
		for _, u := range adj[leaf] {
			if !removed[u] {
				nb = u
				break
			}
		}
		seq = append(seq, nb)
		removed[leaf] = true
		degree[nb]--
		if degree[nb] == 1 && nb < ptr {
			leaf = nb
		} else {
			ptr++
			for ptr < n && degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	return seq
}

// detached returns a copy of t, order included, backed by exactly-sized
// private storage. The allocating generator wrappers return detached
// trees so a retained Tree never pins its generating Buf's O(n) scratch
// slices.
func (t *Tree) detached() *Tree {
	p := make([]int, len(t.parent))
	copy(p, t.parent)
	o := make([]int, len(t.order))
	copy(o, t.order)
	return &Tree{parent: p, root: t.root, order: o}
}

// Random returns a uniformly random rooted labeled tree on n vertices:
// uniform Prüfer sequence plus uniform root, covering all n^(n−1) rooted
// trees with equal probability. Thin wrapper over RandomInto (into.go).
func Random(n int, src *rng.Source) *Tree {
	var b Buf
	return RandomInto(&b, n, src).detached()
}

// RandomPath returns a directed path through a uniform random permutation.
// Thin wrapper over RandomPathInto (into.go).
func RandomPath(n int, src *rng.Source) *Tree {
	var b Buf
	return RandomPathInto(&b, n, src).detached()
}

// Enumerate calls fn once for every rooted labeled tree on n vertices, in a
// deterministic order, until fn returns false. The number of trees is
// n^(n−1) (Cayley), so this is only feasible for small n; callers guard n.
func Enumerate(n int, fn func(*Tree) bool) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(MustNew([]int{0}))
		return
	}
	seq := make([]int, n-2)
	for {
		for root := 0; root < n; root++ {
			t, err := FromPrufer(seq, n, root)
			if err != nil {
				panic(err) // unreachable: in-range by construction
			}
			if !fn(t) {
				return
			}
		}
		// Advance seq as a base-n counter.
		i := len(seq) - 1
		for i >= 0 {
			seq[i]++
			if seq[i] < n {
				break
			}
			seq[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Count returns n^(n−1), the number of rooted labeled trees on n vertices.
// It panics if the count overflows int64 (n > 15 on 64-bit).
func Count(n int) int64 {
	if n <= 0 {
		return 0
	}
	var c int64 = 1
	for i := 0; i < n-1; i++ {
		prev := c
		c *= int64(n)
		if c/int64(n) != prev {
			panic("tree: Count overflow")
		}
	}
	return c
}

// RandomWithLeaves returns a random rooted tree on n vertices with exactly
// k leaves. Valid ranges: n == 1 requires k == 1; n >= 2 requires
// 1 <= k <= n−1. The distribution is not uniform over all such trees (a
// skeleton-plus-attachment construction), which is sufficient for the
// restricted-adversary experiments. Thin wrapper over
// RandomWithLeavesInto (into.go).
func RandomWithLeaves(n, k int, src *rng.Source) (*Tree, error) {
	var b Buf
	t, err := RandomWithLeavesInto(&b, n, k, src)
	if err != nil {
		return nil, err
	}
	return t.detached(), nil
}

// RandomWithInner returns a random rooted tree on n vertices with exactly m
// inner (non-leaf) vertices. See RandomWithLeaves for the distribution
// caveat. Thin wrapper over RandomWithInnerInto (into.go).
func RandomWithInner(n, m int, src *rng.Source) (*Tree, error) {
	var b Buf
	t, err := RandomWithInnerInto(&b, n, m, src)
	if err != nil {
		return nil, err
	}
	return t.detached(), nil
}
