package tree

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzFromPrufer fuzzes the Prüfer decoder — the untrusted decode path
// behind uniform random tree generation and exhaustive enumeration. The
// pinned properties: arbitrary (sequence, n, root) input never panics;
// every accepted input yields a structurally valid rooted tree on n
// vertices with the requested root, whose parent array matches the
// frozen reference decoder and whose Order meets its contract; and the
// decode inverts the encode (Prufer ∘ FromPrufer = id), which together
// with the validity of New re-checking the parent array pins the
// bijection the n^(n−1) counting arguments rely on.
func FuzzFromPrufer(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))              // singleton
	f.Add([]byte{}, uint8(2), uint8(1))              // the n=2 edge (empty sequence)
	f.Add([]byte{0, 1, 2}, uint8(5), uint8(0))       // a valid 5-vertex decode
	f.Add([]byte{3, 3, 3}, uint8(5), uint8(4))       // star-ish: repeated symbol
	f.Add([]byte{9, 0}, uint8(4), uint8(0))          // symbol out of range
	f.Add([]byte{0, 1, 2, 3}, uint8(4), uint8(0))    // wrong sequence length
	f.Add([]byte{0}, uint8(3), uint8(7))             // root out of range
	f.Add([]byte{255, 254, 253}, uint8(5), uint8(2)) // negative after int8 mapping

	f.Fuzz(func(t *testing.T, data []byte, nb, rootb uint8) {
		n := int(nb)
		root := int(int8(rootb)) // include negative roots
		seq := make([]int, len(data))
		for i, b := range data {
			seq[i] = int(int8(b)) // include negative symbols
		}
		tr, err := FromPrufer(seq, n, root)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if tr.N() != n {
			t.Fatalf("FromPrufer(%v, %d, %d).N() = %d", seq, n, root, tr.N())
		}
		if n >= 1 && tr.Root() != root {
			t.Fatalf("FromPrufer(%v, %d, %d).Root() = %d", seq, n, root, tr.Root())
		}
		// The parent array must satisfy every invariant New enforces, and
		// the order the tree carries must meet the Order contract.
		if _, err := New(tr.Parents()); err != nil {
			t.Fatalf("FromPrufer(%v, %d, %d) produced an invalid tree: %v", seq, n, root, err)
		}
		checkOrder(t, tr)
		// The decoder agrees bit for bit with the frozen reference.
		if n >= 2 && !slices.Equal(tr.Parents(), refDecodePrufer(seq, n, root)) {
			t.Fatalf("FromPrufer(%v, %d, %d) = %v, reference decoder %v",
				seq, n, root, tr.Parents(), refDecodePrufer(seq, n, root))
		}
		// Decode inverts encode (the bijection), except that n ≤ 2 has a
		// single unrooted tree and an always-empty sequence.
		if n >= 3 {
			if got := tr.Prufer(); !reflect.DeepEqual(got, seq) {
				t.Fatalf("Prufer(FromPrufer(%v, %d, %d)) = %v", seq, n, root, got)
			}
		}
	})
}
