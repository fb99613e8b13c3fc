// Package core implements the dynamic-rooted-tree broadcast model of
// El-Hayek–Henzinger–Schmid (PODC 2022): n processes, synchronous rounds,
// one adversarially chosen rooted tree per round, knowledge composing as
// the product graph G(t) = G1 ∘ … ∘ Gt.
//
// Two engines evolve the knowledge state:
//
//   - Engine is column-oriented: it maintains the heard set K_y of every
//     process (column y of the adjacency matrix) and applies a round as n
//     word-parallel unions K_y ← K_y ∪ K_parent(y), evaluated against the
//     pre-round state. This is the fast path, O(n²/64) words per round.
//   - MatrixEngine is row-oriented: it maintains the full adjacency matrix
//     (reach sets) via boolmat.ApplyTree. It is slower but exposes the
//     matrix the paper's analysis reasons about, and serves as a
//     differential oracle for Engine.
//
// Broadcast has completed exactly when some row of G(t) is full, i.e. when
// ⋂_y K_y ≠ ∅; Engine tracks that intersection incrementally.
//
// The Run functions drive an Adversary until broadcast (or gossip)
// completion and return the paper's quantity t*.
package core

import (
	"errors"
	"fmt"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/boolmat"
	"dyntreecast/internal/tree"
)

// Adversary chooses the round graph for each round, observing the current
// knowledge state. Implementations must return a tree on exactly View.N()
// vertices; they must not retain or mutate the View's sets.
type Adversary interface {
	// Next returns the tree for round v.Round()+1.
	Next(v View) *tree.Tree
}

// View is the read-only knowledge state an Adversary may consult.
type View interface {
	// N returns the number of processes.
	N() int
	// Round returns the number of rounds applied so far.
	Round() int
	// Heard returns the live heard set K_y (whose values y has received).
	// Callers must not mutate it.
	Heard(y int) *bitset.Set
	// Broadcasters returns the live set ⋂_y K_y of processes whose value
	// has reached everyone. Callers must not mutate it.
	Broadcasters() *bitset.Set
}

// Engine is the column-oriented simulation state. Create with NewEngine.
//
// All n heard rows live in one contiguous bitset.Block (row y = K_y), so a
// round is a flat sweep of word-level OR kernels over packed storage; the
// heard slice holds per-row Set views aliasing the block, serving the View
// interface without copying (DESIGN.md §3g).
type Engine struct {
	n     int
	round int
	block *bitset.Block // n×n packed rows: row y = K_y
	heard []*bitset.Set // heard[y] aliases block row y
	inter *bitset.Set   // ⋂_y K_y, maintained per round
	// fullPrefix is the count of leading rows known full. Rows only gain
	// bits, so fullness is monotone and the cursor never moves back; it
	// amortizes the GossipDone scan and short-circuits the intersection
	// recomputation once the state saturates.
	fullPrefix int
}

var _ View = (*Engine)(nil)

// NewEngine returns the round-0 state on n processes: everyone has heard
// exactly itself. n must be >= 1.
func NewEngine(n int) *Engine {
	if n < 1 {
		panic(fmt.Sprintf("core: NewEngine needs n >= 1, got %d", n))
	}
	e := &Engine{
		n:     n,
		block: bitset.NewBlock(n, n),
		heard: make([]*bitset.Set, n),
		inter: bitset.New(n),
	}
	e.block.SetDiagonal()
	for y := 0; y < n; y++ {
		e.heard[y] = e.block.RowSet(y)
	}
	if n == 1 {
		e.inter.Set(0) // the sole process has trivially broadcast
	}
	return e
}

// Reset returns the engine to the round-0 state on n processes. When n
// matches the engine's current size every buffer is reused and Reset
// allocates nothing; a different n rebuilds the engine as NewEngine would.
// This is the pooled lifecycle of the batched trial pipeline: one engine
// per worker, Reset per trial. n must be >= 1.
func (e *Engine) Reset(n int) {
	if n < 1 {
		panic(fmt.Sprintf("core: Reset needs n >= 1, got %d", n))
	}
	if n != e.n {
		*e = *NewEngine(n)
		return
	}
	e.round = 0
	e.fullPrefix = 0
	e.block.Zero()
	e.block.SetDiagonal()
	e.inter.Reset()
	if n == 1 {
		e.inter.Set(0)
	}
}

// Clone returns an independent copy of the engine state. Used by search
// adversaries that explore alternative futures.
func (e *Engine) Clone() *Engine {
	c := &Engine{
		n:          e.n,
		round:      e.round,
		block:      e.block.Clone(),
		heard:      make([]*bitset.Set, e.n),
		inter:      e.inter.Clone(),
		fullPrefix: e.fullPrefix,
	}
	for y := range c.heard {
		c.heard[y] = c.block.RowSet(y)
	}
	return c
}

// N returns the number of processes.
func (e *Engine) N() int { return e.n }

// Round returns the number of rounds applied so far.
func (e *Engine) Round() int { return e.round }

// Heard returns the live heard set of y.
func (e *Engine) Heard(y int) *bitset.Set { return e.heard[y] }

// Broadcasters returns the live set of processes that have broadcast.
func (e *Engine) Broadcasters() *bitset.Set { return e.inter }

// BroadcastDone reports whether some process's value has reached everyone.
func (e *Engine) BroadcastDone() bool { return !e.inter.Empty() }

// GossipDone reports whether every process has heard every value. The
// fullPrefix cursor makes the scan amortized O(n) words over a whole run:
// rows already known full are never re-checked.
func (e *Engine) GossipDone() bool {
	e.advanceFullPrefix()
	return e.fullPrefix == e.n
}

func (e *Engine) advanceFullPrefix() {
	for e.fullPrefix < e.n && e.block.RowFull(e.fullPrefix) {
		e.fullPrefix++
	}
}

// Step applies one synchronous round along t. Every non-root process y
// merges its parent's pre-round heard set: K_y ← K_y ∪ K_parent(y).
// The self-loop (keeping K_y) is implicit in the union.
func (e *Engine) Step(t *tree.Tree) {
	if t.N() != e.n {
		panic(fmt.Sprintf("core: tree on %d vertices for engine of %d processes", t.N(), e.n))
	}
	parents := t.Parents()
	// Applying in the tree's child-before-parent order (Tree.Order, written
	// once by whoever built the tree) guarantees each K_parent read is the
	// pre-round value: a node is always processed before its parent, so no
	// row is read after being written this round. This keeps the update
	// single-hop per round (no intra-round cascade) without double
	// buffering.
	stride := e.block.Stride()
	words := e.block.Words()
	for _, y := range t.Order() {
		p := parents[y]
		if p == y {
			continue
		}
		bitset.OrWords(words[y*stride:(y+1)*stride], words[p*stride:(p+1)*stride])
	}
	e.round++
	e.recomputeIntersection()
}

func (e *Engine) recomputeIntersection() {
	// Saturation fast path: once every row is full (gossip complete) the
	// intersection is all of [n] and can only stay that way.
	e.advanceFullPrefix()
	e.inter.Fill()
	if e.fullPrefix == e.n {
		return
	}
	for _, k := range e.heard {
		e.inter.Intersect(k)
		if e.inter.Empty() {
			return
		}
	}
}

// Matrix materializes the current adjacency matrix of G(round): entry
// (x, y) is set iff x ∈ K_y.
func (e *Engine) Matrix() *boolmat.Matrix {
	m := boolmat.Zero(e.n)
	for y := 0; y < e.n; y++ {
		e.heard[y].ForEach(func(x int) bool {
			m.Set(x, y)
			return true
		})
	}
	return m
}

// Stats returns the matrix statistics of the current state.
func (e *Engine) Stats() boolmat.Stats { return e.Matrix().Stats() }

// HeardCounts returns |K_y| for every y without materializing the matrix.
func (e *Engine) HeardCounts() []int {
	out := make([]int, e.n)
	for y, k := range e.heard {
		out[y] = k.Count()
	}
	return out
}

// MatrixEngine is the row-oriented reference engine: it holds the full
// adjacency matrix and applies rounds via boolmat.ApplyTree. Its states are
// definitionally G(t); Engine is tested against it.
type MatrixEngine struct {
	m     *boolmat.Matrix
	round int
}

var _ View = (*MatrixEngine)(nil)

// NewMatrixEngine returns the round-0 matrix engine (identity matrix).
func NewMatrixEngine(n int) *MatrixEngine {
	if n < 1 {
		panic(fmt.Sprintf("core: NewMatrixEngine needs n >= 1, got %d", n))
	}
	return &MatrixEngine{m: boolmat.Identity(n)}
}

// Reset returns the matrix engine to the round-0 state (identity matrix)
// on n processes, reusing the matrix when n matches. The MatrixEngine
// sibling of Engine.Reset, so the differential oracle can share the pooled
// lifecycle. n must be >= 1.
func (e *MatrixEngine) Reset(n int) {
	if n < 1 {
		panic(fmt.Sprintf("core: Reset needs n >= 1, got %d", n))
	}
	if n != e.m.N() {
		*e = *NewMatrixEngine(n)
		return
	}
	e.round = 0
	e.m.SetIdentity()
}

// N returns the number of processes.
func (e *MatrixEngine) N() int { return e.m.N() }

// Round returns the number of rounds applied so far.
func (e *MatrixEngine) Round() int { return e.round }

// Step applies one round.
func (e *MatrixEngine) Step(t *tree.Tree) {
	e.m.ApplyTree(t)
	e.round++
}

// Matrix returns the live adjacency matrix; callers must not mutate it.
func (e *MatrixEngine) Matrix() *boolmat.Matrix { return e.m }

// BroadcastDone reports whether some row is full.
func (e *MatrixEngine) BroadcastDone() bool { return e.m.HasFullRow() }

// GossipDone reports whether all rows are full.
func (e *MatrixEngine) GossipDone() bool { return e.m.AllRowsFull() }

// Heard materializes the heard set K_y (column y). Unlike Engine.Heard
// this allocates; MatrixEngine is the slow reference path.
func (e *MatrixEngine) Heard(y int) *bitset.Set { return e.m.Column(y) }

// Broadcasters returns the set of processes with full rows.
func (e *MatrixEngine) Broadcasters() *bitset.Set {
	s := bitset.New(e.m.N())
	for _, x := range e.m.FullRows() {
		s.Set(x)
	}
	return s
}

// Sentinel errors returned by the run drivers.
var (
	// ErrMaxRounds reports that the round budget was exhausted before the
	// goal predicate held. For gossip under an adaptive adversary this is
	// expected: adversarial gossip time is unbounded (see package gossip).
	ErrMaxRounds = errors.New("core: max rounds exceeded")
	// ErrBadTree reports that the adversary returned nil or a tree of the
	// wrong size.
	ErrBadTree = errors.New("core: adversary returned an invalid tree")
)

// Goal selects the termination predicate of a run.
type Goal int

const (
	// Broadcast stops when some process's value has reached everyone
	// (the paper's t*).
	Broadcast Goal = iota
	// Gossip stops when every process has heard every value.
	Gossip
)

// String returns the goal name.
func (g Goal) String() string {
	switch g {
	case Broadcast:
		return "broadcast"
	case Gossip:
		return "gossip"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// Result reports the outcome of a run.
type Result struct {
	N            int
	Goal         Goal
	Rounds       int   // rounds applied; equals t* when Completed
	Completed    bool  // whether the goal predicate held within budget
	Broadcasters []int // processes whose value reached everyone (at end)
	FinalStats   boolmat.Stats
}

// config carries run options.
type config struct {
	maxRounds int
	observer  func(round int, t *tree.Tree, e *Engine)
}

// Option configures Run.
type Option func(*config)

// WithMaxRounds caps the number of rounds. The default is n²+1, which the
// trivial bound of §2 guarantees is enough for broadcast under any valid
// adversary.
func WithMaxRounds(m int) Option {
	return func(c *config) { c.maxRounds = m }
}

// WithObserver installs a per-round callback, invoked after each round with
// the 1-based round number, the tree just applied, and the engine. The
// observer must treat the engine as read-only.
func WithObserver(fn func(round int, t *tree.Tree, e *Engine)) Option {
	return func(c *config) { c.observer = fn }
}

// Run drives adv from the initial state until the goal holds, returning
// t* in Result.Rounds. If the round budget is exhausted first it returns
// the partial result and an error wrapping ErrMaxRounds.
func Run(n int, adv Adversary, goal Goal, opts ...Option) (Result, error) {
	cfg := config{maxRounds: n*n + 1}
	for _, o := range opts {
		o(&cfg)
	}
	e := NewEngine(n)
	done := func() bool {
		if goal == Gossip {
			return e.GossipDone()
		}
		return e.BroadcastDone()
	}
	for !done() {
		if e.round >= cfg.maxRounds {
			res := resultOf(e, goal, false)
			return res, fmt.Errorf("%w: %s incomplete after %d rounds (n=%d)",
				ErrMaxRounds, goal, e.round, n)
		}
		t := adv.Next(e)
		if t == nil || t.N() != n {
			res := resultOf(e, goal, false)
			return res, fmt.Errorf("%w: round %d", ErrBadTree, e.round+1)
		}
		e.Step(t)
		if cfg.observer != nil {
			cfg.observer(e.round, t, e)
		}
	}
	return resultOf(e, goal, true), nil
}

func resultOf(e *Engine, goal Goal, completed bool) Result {
	return Result{
		N:            e.n,
		Goal:         goal,
		Rounds:       e.round,
		Completed:    completed,
		Broadcasters: e.inter.Slice(),
		FinalStats:   e.Stats(),
	}
}

// BroadcastTime is the common case: run adv to broadcast completion and
// return t*.
func BroadcastTime(n int, adv Adversary, opts ...Option) (int, error) {
	res, err := Run(n, adv, Broadcast, opts...)
	if err != nil {
		return res.Rounds, err
	}
	return res.Rounds, nil
}
