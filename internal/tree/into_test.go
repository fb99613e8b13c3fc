package tree

import (
	"slices"
	"testing"

	"dyntreecast/internal/rng"
)

// TestRandomIntoMatchesRandom: the in-place generator consumes the same
// stream and produces the same trees as the allocating form, across many
// sizes — the property the batched pipeline's byte-identity rests on.
func TestRandomIntoMatchesRandom(t *testing.T) {
	var b Buf
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		srcA, srcB := rng.New(uint64(n)), rng.New(uint64(n))
		for trial := 0; trial < 20; trial++ {
			want := Random(n, srcA)
			got := RandomInto(&b, n, srcB)
			if !want.Equal(got) {
				t.Fatalf("n=%d trial %d: trees differ:\n  want %v\n  got  %v", n, trial, want, got)
			}
		}
		// Streams must stay in lockstep afterwards too.
		if srcA.Uint64() != srcB.Uint64() {
			t.Fatalf("n=%d: stream positions diverged", n)
		}
	}
}

// TestRandomPathIntoMatchesRandomPath mirrors the Random test for paths.
func TestRandomPathIntoMatchesRandomPath(t *testing.T) {
	var b Buf
	for _, n := range []int{1, 2, 9, 40} {
		srcA, srcB := rng.New(uint64(n)+5), rng.New(uint64(n)+5)
		for trial := 0; trial < 10; trial++ {
			want := RandomPath(n, srcA)
			got := RandomPathInto(&b, n, srcB)
			if !want.Equal(got) {
				t.Fatalf("n=%d trial %d: paths differ", n, trial)
			}
			if !got.IsPath() {
				t.Fatalf("n=%d trial %d: not a path: %v", n, trial, got)
			}
		}
	}
}

// TestRandomWithLeavesIntoMatches: same stream, same trees, same error
// cases as the allocating form, plus structural validity of the reused
// buffer's output.
func TestRandomWithLeavesIntoMatches(t *testing.T) {
	var b Buf
	for _, n := range []int{1, 2, 6, 20} {
		for k := 0; k <= n; k++ {
			srcA, srcB := rng.New(uint64(n*100+k)), rng.New(uint64(n*100+k))
			for trial := 0; trial < 5; trial++ {
				want, errA := RandomWithLeaves(n, k, srcA)
				got, errB := RandomWithLeavesInto(&b, n, k, srcB)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("n=%d k=%d: error mismatch: %v vs %v", n, k, errA, errB)
				}
				if errA != nil {
					if errA.Error() != errB.Error() {
						t.Fatalf("n=%d k=%d: error strings differ: %q vs %q", n, k, errA, errB)
					}
					break // no stream consumed on errors; next k
				}
				if !want.Equal(got) {
					t.Fatalf("n=%d k=%d trial %d: trees differ", n, k, trial)
				}
				// The in-place tree must be a valid tree with exactly k
				// leaves (revalidate through the checking constructor).
				re, err := New(got.Parents())
				if err != nil {
					t.Fatalf("n=%d k=%d: invalid in-place tree: %v", n, k, err)
				}
				if re.NumLeaves() != k {
					t.Fatalf("n=%d k=%d: got %d leaves", n, k, re.NumLeaves())
				}
			}
		}
	}
}

// TestRandomWithInnerIntoMatches spot-checks the inner-node form.
func TestRandomWithInnerIntoMatches(t *testing.T) {
	var b Buf
	src := rng.New(9)
	src2 := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		want, errA := RandomWithInner(12, 4, src)
		got, errB := RandomWithInnerInto(&b, 12, 4, src2)
		if errA != nil || errB != nil || !want.Equal(got) {
			t.Fatalf("trial %d: %v/%v, equal=%v", trial, errA, errB, want.Equal(got))
		}
	}
}

// TestPathInto: in-place path construction matches MustPath and rejects
// non-permutations.
func TestPathInto(t *testing.T) {
	var b Buf
	order := []int{2, 0, 3, 1}
	if got, want := PathInto(&b, order), MustPath(order); !got.Equal(want) {
		t.Fatalf("PathInto = %v, want %v", got, want)
	}
	if got := PathInto(&b, nil); got.N() != 0 {
		t.Fatalf("empty PathInto has %d vertices", got.N())
	}
	defer func() {
		if recover() == nil {
			t.Error("PathInto accepted a repeated vertex")
		}
	}()
	PathInto(&b, []int{0, 0, 1})
}

// TestBufReuseAcrossSizes: one Buf serves shrinking and growing n
// without carrying stale state across generations.
func TestBufReuseAcrossSizes(t *testing.T) {
	var b Buf
	src := rng.New(3)
	for _, n := range []int{32, 4, 1, 19, 2, 32} {
		got := RandomInto(&b, n, src)
		if got.N() != n {
			t.Fatalf("generated %d vertices, want %d", got.N(), n)
		}
		if _, err := New(got.Parents()); err != nil {
			t.Fatalf("n=%d: invalid tree: %v", n, err)
		}
		if got != b.Tree() {
			t.Fatalf("n=%d: returned tree is not the Buf's", n)
		}
	}
}

// TestRandomIntoAllocs: a warm Buf generates with zero allocations.
func TestRandomIntoAllocs(t *testing.T) {
	var b Buf
	src := rng.New(7)
	RandomInto(&b, 64, src)
	if allocs := testing.AllocsPerRun(50, func() { RandomInto(&b, 64, src) }); allocs > 0 {
		t.Errorf("warm RandomInto allocates %.1f objects/run, want 0", allocs)
	}
	RandomPathInto(&b, 64, src)
	if allocs := testing.AllocsPerRun(50, func() { RandomPathInto(&b, 64, src) }); allocs > 0 {
		t.Errorf("warm RandomPathInto allocates %.1f objects/run, want 0", allocs)
	}
	perm := src.Perm(64)
	PathInto(&b, perm)
	if allocs := testing.AllocsPerRun(50, func() { PathInto(&b, perm) }); allocs > 0 {
		t.Errorf("warm PathInto allocates %.1f objects/run, want 0", allocs)
	}
	if _, err := RandomWithLeavesInto(&b, 64, 4, src); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := RandomWithLeavesInto(&b, 64, 4, src); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm RandomWithLeavesInto allocates %.1f objects/run, want 0", allocs)
	}
}

// refDecodePrufer is the frozen reference decoder: the earlier
// edge-list → CSR adjacency → BFS implementation, kept verbatim in logic
// (allocating instead of reusing a Buf). Buf.decodePrufer must produce
// the same parent array for every input; TestRandomIntoMatchesRandom
// cannot catch a decoder change because both of its sides decode through
// Buf.decodePrufer.
func refDecodePrufer(seq []int, n, root int) []int {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, s := range seq {
		deg[s]++
	}
	// Classic O(n) decoding into an edge list (eu[i], ev[i]).
	eu, ev := make([]int, n-1), make([]int, n-1)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	ne := 0
	for _, s := range seq {
		eu[ne], ev[ne] = leaf, s
		ne++
		deg[leaf]--
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
	last := -1
	for v := n - 1; v >= 0; v-- {
		if v != leaf && deg[v] == 1 {
			last = v
			break
		}
	}
	eu[ne], ev[ne] = leaf, last
	ne++

	// Undirected adjacency in CSR form, filled in edge order.
	off := make([]int, n+1)
	for i := 0; i < ne; i++ {
		off[eu[i]+1]++
		off[ev[i]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	cur := make([]int, n)
	copy(cur, off[:n])
	tgt := make([]int, 2*ne)
	for i := 0; i < ne; i++ {
		u, v := eu[i], ev[i]
		tgt[cur[u]] = v
		cur[u]++
		tgt[cur[v]] = u
		cur[v]++
	}

	// Orient away from root by BFS.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for j := off[u]; j < off[u+1]; j++ {
			if v := tgt[j]; parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// checkDecodeMatchesRef decodes (seq, root) through b and fails unless the
// parent array is bit-identical to the frozen reference's and the order
// meets the Order contract.
func checkDecodeMatchesRef(t *testing.T, b *Buf, seq []int, n, root int) {
	t.Helper()
	b.decodePrufer(seq, n, root)
	want := refDecodePrufer(seq, n, root)
	if !slices.Equal(b.t.parent, want) || b.t.root != root {
		t.Fatalf("decodePrufer(%v, %d, %d) = %v (root %d), reference %v",
			seq, n, root, b.t.parent, b.t.root, want)
	}
	checkOrder(t, &b.t)
}

// TestDecodePruferMatchesFrozenReference: exhaustively over every
// (sequence, root) at n ≤ 7, then over 10⁴ random sequences at n up to
// 1024, the leaf-elimination decoder reproduces the reference decoder's
// parent arrays bit for bit, through one Buf reused across all sizes.
func TestDecodePruferMatchesFrozenReference(t *testing.T) {
	var b Buf
	for n := 2; n <= 7; n++ {
		seq := make([]int, n-2)
		for {
			for root := 0; root < n; root++ {
				checkDecodeMatchesRef(t, &b, seq, n, root)
			}
			i := len(seq) - 1
			for ; i >= 0; i-- {
				if seq[i]++; seq[i] < n {
					break
				}
				seq[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	src := rng.New(14)
	for trial := 0; trial < 10000; trial++ {
		n := 2 + src.Intn(1023)
		seq := make([]int, n-2)
		for i := range seq {
			seq[i] = src.Intn(n)
		}
		checkDecodeMatchesRef(t, &b, seq, n, src.Intn(n))
	}
}
