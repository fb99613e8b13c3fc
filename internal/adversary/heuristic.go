package adversary

import (
	"fmt"
	"math/bits"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// countingSortByAsc stably sorts order (a permutation of [0,n)) by
// ascending key[v], using bucket as counting-sort scratch (grown to
// maxKey+2). A stable sort by one key has a unique result, so this plays
// exactly the order sort.SliceStable would, without reflection or
// allocation.
func countingSortByAsc(order, tmp []int, key []int, bucket *[]int, maxKey int) {
	buckets := tree.Grow(bucket, maxKey+2)
	for i := range buckets {
		buckets[i] = 0
	}
	for _, v := range order {
		buckets[key[v]+1]++
	}
	for i := 0; i < maxKey+1; i++ {
		buckets[i+1] += buckets[i]
	}
	copy(tmp, order)
	for _, v := range tmp {
		order[buckets[key[v]]] = v
		buckets[key[v]]++
	}
}

// AscendingPath plays, each round, the path ordered by ascending heard-set
// size: the most ignorant process is the root and everyone receives from a
// process that knows at most as much as its own tier. Ties break by
// process id, so the adversary is deterministic.
//
// Rationale: along a path v1 → v2 → …, process v_{i+1} gains K_{v_i} \
// K_{v_{i+1}}; feeding everyone from less-knowledgeable processes keeps
// per-round knowledge growth near its minimum.
//
// The zero value is ready to use; its sort scratch and tree buffer are
// pooled across rounds and trials.
type AscendingPath struct {
	buf                        tree.Buf
	counts, order, tmp, bucket []int
}

// Reset implements the reusable-adversary contract (AscendingPath is
// source-free).
func (*AscendingPath) Reset(*rng.Source) {}

// Next implements core.Adversary.
func (a *AscendingPath) Next(v core.View) *tree.Tree {
	n := v.N()
	counts := tree.Grow(&a.counts, n)
	order := tree.Grow(&a.order, n)
	tmp := tree.Grow(&a.tmp, n)
	for i := 0; i < n; i++ {
		counts[i] = v.Heard(i).Count()
		order[i] = i
	}
	countingSortByAsc(order, tmp, counts, &a.bucket, n)
	return tree.PathInto(&a.buf, order)
}

var _ core.Adversary = (*AscendingPath)(nil)

// heardTally is an exact running count of a view's heard matrix: heard[y]
// = |K_y| and reach[x] = |R_x| = |{y : x ∈ K_y}|, the sizes of the
// matrix's columns and rows. It keeps a word snapshot of the heard rows it
// last synced, so a sync pays one compare per word plus one update per bit
// that changed, instead of a recount of all n² entries.
//
// The counts describe exactly the matrix last synced, whatever the view
// before it was: a restart at identity counts the old bits out, a jump to
// an unrelated state counts only the difference. There is no notion of
// rounds or trials to keep in step. The zero value is ready to use.
type heardTally struct {
	seen  []uint64 // n rows of bitset.WordsFor(n) words: the rows last synced
	heard []int    // heard[y] = |K_y| in seen
	reach []int    // reach[x] = |R_x| in seen
}

// sync brings the snapshot and counts up to v's heard matrix. Storage is
// zeroed and resized only when n changes.
func (t *heardTally) sync(v core.View) {
	n := v.N()
	w := bitset.WordsFor(n)
	if len(t.heard) != n {
		clear(tree.Grow(&t.seen, n*w))
		clear(tree.Grow(&t.heard, n))
		clear(tree.Grow(&t.reach, n))
	}
	for y := 0; y < n; y++ {
		row := t.seen[y*w : (y+1)*w]
		for i, cur := range v.Heard(y).Words()[:w] {
			old := row[i]
			if cur == old {
				continue
			}
			add, del := cur&^old, old&^cur
			t.heard[y] += bits.OnesCount64(add) - bits.OnesCount64(del)
			base := i * 64
			for ; add != 0; add &= add - 1 {
				t.reach[base+bits.TrailingZeros64(add)]++
			}
			for ; del != 0; del &= del - 1 {
				t.reach[base+bits.TrailingZeros64(del)]--
			}
			row[i] = cur
		}
	}
}

// BlockLeader stalls the most dangerous value. Each round it identifies
// the leader — the incomplete value x with the largest reach set R_x —
// and plays a path whose prefix consists of the processes that have NOT
// heard x. Every non-knower's parent is then also a non-knower, so R_x
// does not grow at all this round; the leader is frozen while the rest of
// the state drifts as slowly as possible (both segments are ordered by
// ascending heard count).
//
// This single-round blocking is the basic mechanism behind the known
// lower-bound constructions: broadcast cannot finish until the adversary
// runs out of values it can afford to freeze.
//
// The zero value is ready to use. Reach and heard counts come from a
// heardTally, which a round updates by the heard bits that changed since
// the previous round; the sort scratch and tree buffer are reused.
type BlockLeader struct {
	buf                tree.Buf
	tally              heardTally
	order, tmp, bucket []int
}

// Reset implements the reusable-adversary contract (BlockLeader is
// source-free; the tally needs no reset, see heardTally).
func (*BlockLeader) Reset(*rng.Source) {}

// Next implements core.Adversary.
func (a *BlockLeader) Next(v core.View) *tree.Tree {
	n := v.N()
	t := &a.tally
	t.sync(v)

	// Leader: incomplete value with maximum reach; ties by id.
	leader, best := -1, -1
	for x, c := range t.reach {
		if c < n && c > best {
			leader, best = x, c
		}
	}
	if leader < 0 {
		// Every value has completed (broadcast done); any tree is fine.
		// (IdentityPath allocates, but this round is unreachable from the
		// run loop, which stops once broadcast completes.)
		return tree.IdentityPath(n)
	}

	// order = non-knowers of the leader, then knowers, each segment
	// stably sorted by ascending heard count. y knows the leader iff its
	// bit is set in row y of the snapshot.
	order := tree.Grow(&a.order, n)
	tmp := tree.Grow(&a.tmp, n)
	w, word, mask := bitset.WordsFor(n), leader/64, uint64(1)<<(leader%64)
	nk, kn := 0, 0
	for y := 0; y < n; y++ {
		if t.seen[y*w+word]&mask != 0 {
			tmp[kn] = y
			kn++
		} else {
			order[nk] = y
			nk++
		}
	}
	copy(order[nk:], tmp[:kn])
	countingSortByAsc(order[:nk], tmp[:nk], t.heard, &a.bucket, n)
	countingSortByAsc(order[nk:], tmp[nk:], t.heard, &a.bucket, n)
	return tree.PathInto(&a.buf, order)
}

var _ core.Adversary = (*BlockLeader)(nil)

// TwoPhasePath is the explicit oblivious schedule in the spirit of the
// Zeiner–Schwarz–Schmid lower-bound construction: play the identity path
// for switchAt rounds, then play the path with its first prefix vertices
// reversed for the remainder. With switchAt ≈ n/2 and prefix ≈ n/2 the
// schedule forces the early leaders' values to double back through the
// first half before they can finish.
//
// The schedule is oblivious (state-independent), so the broadcast time it
// achieves is a certified lower bound on t*(Tn) for that n. The bench
// harness sweeps switchAt/prefix and reports the best value found.
type TwoPhasePath struct {
	switchAt       int
	phase1, phase2 *tree.Tree
}

// NewTwoPhasePath validates the schedule's shape and precomputes its two
// phase trees, so every round and every trial of a cell shares them. It
// returns errors rather than panicking, so it is safe to reach from user
// input such as campaign specs and campaignd requests.
func NewTwoPhasePath(n, switchAt, prefix int) (*TwoPhasePath, error) {
	if n < 1 {
		return nil, fmt.Errorf("adversary: two-phase path needs n >= 1, got %d", n)
	}
	if switchAt < 0 {
		return nil, fmt.Errorf("adversary: two-phase path needs switch_at >= 0, got %d", switchAt)
	}
	if prefix < 0 || prefix > n {
		return nil, fmt.Errorf("adversary: two-phase path needs 0 <= prefix <= n, got prefix=%d at n=%d", prefix, n)
	}
	order := make([]int, 0, n)
	for i := prefix - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for i := prefix; i < n; i++ {
		order = append(order, i)
	}
	return &TwoPhasePath{switchAt: switchAt, phase1: tree.IdentityPath(n), phase2: tree.MustPath(order)}, nil
}

// Reset implements the reusable-adversary contract (the schedule is
// oblivious).
func (*TwoPhasePath) Reset(*rng.Source) {}

// Next implements core.Adversary. The trees are sized for the n given to
// NewTwoPhasePath; an engine of any other size rejects them, failing the
// run with core.ErrBadTree.
func (a *TwoPhasePath) Next(v core.View) *tree.Tree {
	if v.Round() < a.switchAt {
		return a.phase1
	}
	return a.phase2
}

var _ core.Adversary = (*TwoPhasePath)(nil)
