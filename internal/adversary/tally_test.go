package adversary

import (
	"testing"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/core"
)

// matrixView is a core.View over arbitrary heard rows, reachable from a
// broadcast run or not (rows need not even contain their own process).
type matrixView struct{ rows []*bitset.Set }

func (m *matrixView) N() int                  { return len(m.rows) }
func (m *matrixView) Round() int              { return 0 }
func (m *matrixView) Heard(y int) *bitset.Set { return m.rows[y] }
func (m *matrixView) Broadcasters() *bitset.Set {
	inter := bitset.NewFull(len(m.rows))
	for _, r := range m.rows {
		inter.Intersect(r)
	}
	return inter
}

var _ core.View = (*matrixView)(nil)

// resize replaces the matrix with an n×n one whose row y holds bit x iff
// bit x%8 of pattern^y is set.
func (m *matrixView) resize(n int, pattern byte) {
	m.rows = make([]*bitset.Set, n)
	for y := range m.rows {
		m.rows[y] = bitset.New(n)
		m.setRow(y, pattern^byte(y))
	}
}

// setRow makes row y hold bit x iff bit x%8 of pattern is set.
func (m *matrixView) setRow(y int, pattern byte) {
	r := m.rows[y]
	for x := 0; x < r.Len(); x++ {
		if pattern>>(x%8)&1 != 0 {
			r.Set(x)
		} else {
			r.Clear(x)
		}
	}
}

// checkTally compares the tally's counts against a per-bit recount of v.
func checkTally(t *testing.T, tally *heardTally, v core.View) {
	t.Helper()
	n := v.N()
	if len(tally.heard) != n || len(tally.reach) != n {
		t.Fatalf("n=%d: tally sized heard=%d reach=%d", n, len(tally.heard), len(tally.reach))
	}
	reach := make([]int, n)
	for y := 0; y < n; y++ {
		heard := 0
		for x := 0; x < n; x++ {
			if v.Heard(y).Test(x) {
				heard++
				reach[x]++
			}
		}
		if tally.heard[y] != heard {
			t.Fatalf("n=%d: heard[%d] = %d, recount %d", n, y, tally.heard[y], heard)
		}
	}
	for x, c := range reach {
		if tally.reach[x] != c {
			t.Fatalf("n=%d: reach[%d] = %d, recount %d", n, x, tally.reach[x], c)
		}
	}
}

// FuzzHeardTally drives one heardTally through a sequence of arbitrary
// heard matrices: each 3-byte op resizes the matrix (n up to 199, so one
// to four words per row), toggles one bit, rewrites one row, rewrites one
// column, or syncs and checks. After every sync, heard and reach must
// equal a per-bit recount, whatever states came before.
func FuzzHeardTally(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tally heardTally
		v := &matrixView{}
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0]%5, int(data[1]), data[2]
			n := v.N()
			switch {
			case op == 0:
				v.resize((a<<8|int(b))%200, b)
			case n == 0:
			case op == 1:
				v.rows[a%n].Flip(int(b) % n)
			case op == 2:
				v.setRow(a%n, b)
			case op == 3:
				for y, r := range v.rows {
					if b>>(y%8)&1 != 0 {
						r.Set(a % n)
					} else {
						r.Clear(a % n)
					}
				}
			default:
				tally.sync(v)
				checkTally(t, &tally, v)
			}
		}
		tally.sync(v)
		checkTally(t, &tally, v)
	})
}
