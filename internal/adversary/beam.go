package adversary

import (
	"sort"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// BeamConfig tunes BeamSearch.
type BeamConfig struct {
	// Width is the number of states kept per depth (default 8).
	Width int
	// RandomMoves is the number of extra random-path proposals per state
	// per round (default 4), on top of the deterministic heuristics.
	RandomMoves int
	// RandomTrees is the number of extra uniformly random tree proposals
	// per state per round (default 4). The optimal adversary for small n
	// plays general trees, not paths, so these proposals matter.
	RandomTrees int
	// MaxRounds caps the search depth (default bounds-safe n²+1).
	MaxRounds int
	// Seed drives the random proposals.
	Seed uint64
}

// beamNode is one search state: an engine plus the move history that led
// to it (shared persistent list to avoid copying schedules).
type beamNode struct {
	eng  *core.Engine
	hist *histNode
	// score fields, recomputed per round: primary = max reach of any
	// value (smaller is better — farther from completion), secondary =
	// total edges (smaller is better).
	maxReach   int
	totalEdges int
}

type histNode struct {
	prev *histNode
	t    *tree.Tree
}

func (h *histNode) schedule() []*tree.Tree {
	var rev []*tree.Tree
	for n := h; n != nil; n = n.prev {
		rev = append(rev, n.t)
	}
	out := make([]*tree.Tree, len(rev))
	for i, t := range rev {
		out[len(rev)-1-i] = t
	}
	return out
}

// BeamSearch searches offline for a tree schedule that maximizes broadcast
// time on n processes and returns the best schedule found (as a Replay
// adversary) together with the number of rounds it survives — a certified
// achievable value, hence a lower bound witness for t*(Tn).
//
// Each round, every beam state proposes candidate trees from the adaptive
// heuristics (AscendingPath, BlockLeader, MinGain) plus random paths, and
// the most-stalled resulting states are kept. The search ends when every
// beam state has completed broadcast; the longest-surviving history wins.
func BeamSearch(n int, cfg BeamConfig) (Replay, int) {
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	if cfg.RandomMoves < 0 {
		cfg.RandomMoves = 0
	} else if cfg.RandomMoves == 0 {
		cfg.RandomMoves = 4
	}
	if cfg.RandomTrees < 0 {
		cfg.RandomTrees = 0
	} else if cfg.RandomTrees == 0 {
		cfg.RandomTrees = 4
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = n*n + 1
	}
	src := rng.New(cfg.Seed)

	if n == 1 {
		return Replay{Trees: []*tree.Tree{tree.MustNew([]int{0})}}, 0
	}

	proposers := []core.Adversary{&AscendingPath{}, &BlockLeader{}, MinGain{Roots: 2}}
	var tally heardTally

	beam := []*beamNode{{eng: core.NewEngine(n)}}
	bestRounds := 0
	bestHist := (*histNode)(nil)

	for depth := 1; depth <= cfg.MaxRounds && len(beam) > 0; depth++ {
		var next []*beamNode
		seen := map[string]bool{}
		for _, node := range beam {
			cands := make([]*tree.Tree, 0, len(proposers)+cfg.RandomMoves+cfg.RandomTrees)
			for _, p := range proposers {
				// Copy: the heuristics' trees alias their scratch, and
				// candidates outlive the next proposal (they enter the history).
				cands = append(cands, tree.MustNew(p.Next(node.eng).Parents()))
			}
			for i := 0; i < cfg.RandomMoves; i++ {
				cands = append(cands, tree.RandomPath(n, src))
			}
			for i := 0; i < cfg.RandomTrees; i++ {
				cands = append(cands, tree.Random(n, src))
			}
			for _, t := range cands {
				child := node.eng.Clone()
				child.Step(t)
				hist := &histNode{prev: node.hist, t: t}
				if child.BroadcastDone() {
					// This schedule ends here; it survived depth−1 full
					// rounds before the completing round.
					if depth > bestRounds {
						bestRounds = depth
						bestHist = hist
					}
					continue
				}
				key := child.Matrix().Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				next = append(next, scoreNode(&tally, child, hist))
			}
		}
		if len(next) == 0 {
			break
		}
		sort.SliceStable(next, func(a, b int) bool {
			if next[a].maxReach != next[b].maxReach {
				return next[a].maxReach < next[b].maxReach
			}
			return next[a].totalEdges < next[b].totalEdges
		})
		if len(next) > cfg.Width {
			next = next[:cfg.Width]
		}
		beam = next
		// Any surviving state already beats schedules that completed at
		// this depth; record a pessimistic floor so the final answer is
		// correct even if MaxRounds truncates the search.
		if depth >= bestRounds {
			bestRounds = depth
			bestHist = beam[0].hist
		}
	}

	if bestHist == nil {
		return Replay{Trees: []*tree.Tree{tree.IdentityPath(n)}}, n - 1
	}
	sched := bestHist.schedule()
	// Replaying the schedule: if the recorded best was a surviving
	// (incomplete) state, the Replay's repeat-last-tree rule finishes the
	// run; the reported rounds then undercount the replayed t*, which is
	// fine for a lower-bound witness. Re-measure for the exact value.
	rounds, err := core.BroadcastTime(n, Replay{Trees: sched})
	if err != nil {
		// The trivial-bound budget cannot be exceeded by a valid replay;
		// fall back to the searched floor.
		rounds = bestRounds
	}
	return Replay{Trees: sched}, rounds
}

// scoreNode scores state e through the search's tally. Sibling states
// differ from each other by about one round, so each sync is small.
func scoreNode(t *heardTally, e *core.Engine, h *histNode) *beamNode {
	t.sync(e)
	maxReach, total := 0, 0
	for _, c := range t.reach {
		maxReach = max(maxReach, c)
	}
	for _, c := range t.heard {
		total += c
	}
	return &beamNode{eng: e, hist: h, maxReach: maxReach, totalEdges: total}
}
