// Package adversary implements the tree-choosing strategies of the
// broadcast game.
//
// The paper's t*(Tn) is a maximum over all adversaries; a simulator can
// only exhibit particular adversaries, each of which yields a lower bound
// on t*(Tn). The package provides three strata:
//
//   - Oblivious schedules: Static, Cycle, Replay, the random families
//     (Random, RandomPath), and the restricted families (KLeaves, KInner)
//     that reproduce the Zeiner et al. O(kn) regimes.
//   - Adaptive heuristics that inspect the knowledge state each round:
//     AscendingPath (feed the ignorant first), BlockLeader (starve the
//     most-spread value), and MinGain (a minimum-weight arborescence per
//     round via Chu-Liu/Edmonds, minimizing the number of new product-graph
//     edges).
//   - Search: BeamSearch explores tree sequences offline and returns the
//     best schedule found as a Replay.
//
// All adversaries are deterministic given their inputs (random ones take an
// explicit rng.Source), so every experiment in this repository reproduces
// bit-for-bit from seeds.
//
// Every stock adversary has one form, reusable across trials (DESIGN.md
// §3d): Reset rebinds it to a fresh trial's random source (a no-op for
// source-free adversaries) while its per-n scratch — tree buffers, bitset
// rows, sort workspaces — persists, so a warm adversary plays whole trials
// without allocating. The trees the scratch-backed adversaries (Random,
// RandomPath, KLeaves, KInner, AscendingPath, BlockLeader,
// StaleAscendingPath) return alias that scratch: each is valid only until
// the adversary's next Next call, which is exactly the lifetime
// core.Engine.Step needs. Callers that keep round trees must copy them.
//
// Paper anchors: the portfolio feeds the best-measured curves of Figure 1
// (experiment E1) and the Theorem 3.1 sandwich checks (E2); the static
// path realizes the §2 equality t* = n−1 (E3); KLeaves/KInner reproduce
// the Zeiner et al. restricted regimes (E5); and the adaptive heuristics
// drive the matrix-evolution traces of E8.
package adversary

import (
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// Func adapts a function to core.Adversary.
type Func func(core.View) *tree.Tree

// Next implements core.Adversary.
func (f Func) Next(v core.View) *tree.Tree { return f(v) }

var _ core.Adversary = (Func)(nil)

// Static plays the same tree every round — the §2 baseline (a static path
// yields t* = n−1).
type Static struct{ Tree *tree.Tree }

// Next implements core.Adversary.
func (s Static) Next(core.View) *tree.Tree { return s.Tree }

// Reset implements the reusable-adversary contract (the schedule is
// source-free).
func (Static) Reset(*rng.Source) {}

var _ core.Adversary = Static{}

// Cycle plays a finite schedule repeatedly: round i uses Trees[i mod len].
type Cycle struct{ Trees []*tree.Tree }

// Next implements core.Adversary.
func (c Cycle) Next(v core.View) *tree.Tree {
	if len(c.Trees) == 0 {
		return nil
	}
	return c.Trees[v.Round()%len(c.Trees)]
}

var _ core.Adversary = Cycle{}

// Replay plays a finite schedule once and then repeats its last tree
// forever. This is how offline-search results are fed back into the
// engine: the searched prefix is what matters, and repeating the final
// tree guarantees termination (any fixed rooted tree completes broadcast).
type Replay struct{ Trees []*tree.Tree }

// Next implements core.Adversary.
func (r Replay) Next(v core.View) *tree.Tree {
	if len(r.Trees) == 0 {
		return nil
	}
	if i := v.Round(); i < len(r.Trees) {
		return r.Trees[i]
	}
	return r.Trees[len(r.Trees)-1]
}

// Reset implements the reusable-adversary contract (the schedule is
// source-free).
func (Replay) Reset(*rng.Source) {}

var _ core.Adversary = Replay{}

// Random plays an independent uniformly random rooted tree each round,
// generated in place.
type Random struct {
	src *rng.Source
	buf tree.Buf
}

// NewRandom returns a Random drawing from src.
func NewRandom(src *rng.Source) *Random { return &Random{src: src} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *Random) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary.
func (r *Random) Next(v core.View) *tree.Tree { return tree.RandomInto(&r.buf, v.N(), r.src) }

// RandomPath plays an independent uniformly random directed path each
// round, generated in place.
type RandomPath struct {
	src *rng.Source
	buf tree.Buf
}

// NewRandomPath returns a RandomPath drawing from src.
func NewRandomPath(src *rng.Source) *RandomPath { return &RandomPath{src: src} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *RandomPath) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary.
func (r *RandomPath) Next(v core.View) *tree.Tree {
	return tree.RandomPathInto(&r.buf, v.N(), r.src)
}

// KLeaves plays random trees with exactly k leaves — the k-leaf restricted
// adversary class of Zeiner et al., for which broadcast time is O(k·n).
type KLeaves struct {
	k   int
	src *rng.Source
	buf tree.Buf
}

// NewKLeaves returns a KLeaves playing k-leaf trees drawn from src.
func NewKLeaves(k int, src *rng.Source) *KLeaves { return &KLeaves{k: k, src: src} }

// Reset rebinds the adversary to a fresh trial's source.
func (a *KLeaves) Reset(src *rng.Source) { a.src = src }

// Next implements core.Adversary. It returns nil (failing the run) if k is
// infeasible for the engine's n.
func (a *KLeaves) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithLeavesInto(&a.buf, v.N(), a.k, a.src)
	if err != nil {
		return nil
	}
	return t
}

// KInner plays random trees with exactly k inner nodes — the k-inner-node
// restricted adversary class of Zeiner et al.
type KInner struct {
	k   int
	src *rng.Source
	buf tree.Buf
}

// NewKInner returns a KInner playing trees with exactly k inner nodes
// drawn from src.
func NewKInner(k int, src *rng.Source) *KInner { return &KInner{k: k, src: src} }

// Reset rebinds the adversary to a fresh trial's source.
func (a *KInner) Reset(src *rng.Source) { a.src = src }

// Next implements core.Adversary. It returns nil (failing the run) if k is
// infeasible for the engine's n.
func (a *KInner) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithInnerInto(&a.buf, v.N(), a.k, a.src)
	if err != nil {
		return nil
	}
	return t
}
