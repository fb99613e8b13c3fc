package adversary

import (
	"math"
	"sort"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

const infWeight = math.MaxInt / 4

// MinArborescence computes a minimum-weight spanning arborescence of the
// complete digraph on n vertices, rooted at root, with edge weights
// weight[u][v] for the edge u → v (diagonal entries are ignored). It
// returns the parent array of the arborescence (parent[root] == root).
//
// This is the Chu-Liu/Edmonds algorithm in its recursive dense form:
// select each vertex's cheapest in-edge, contract every cycle those
// selections form, solve the contracted instance, and expand by breaking
// each cycle at the vertex through which the contracted solution enters
// it. O(n²) per contraction level, at most n levels.
func MinArborescence(n, root int, weight [][]int) []int {
	if n == 1 {
		return []int{0}
	}
	parent := solveArb(n, root, weight)
	parent[root] = root
	return parent
}

// solveArb returns, for the m-vertex instance with weights w and root r,
// the chosen in-neighbor of every vertex (entry for r is r).
func solveArb(m, r int, w [][]int) []int {
	pre := make([]int, m)
	pre[r] = r
	for v := 0; v < m; v++ {
		if v == r {
			continue
		}
		best, bu := infWeight, -1
		for u := 0; u < m; u++ {
			if u != v && w[u][v] < best {
				best, bu = w[u][v], u
			}
		}
		pre[v] = bu
	}

	// Find the cycles of the pre function graph. comp[v] >= 0 assigns
	// component ids; cycle components are discovered by walking pre until
	// a repeat within the current walk.
	const (
		unseen = -1
		onPath = -2
	)
	comp := make([]int, m)
	for i := range comp {
		comp[i] = unseen
	}
	numComp := 0
	var cycles [][]int
	comp[r] = numComp
	numComp++
	for v := 0; v < m; v++ {
		if comp[v] != unseen {
			continue
		}
		// Walk up the pre chain marking the path.
		u := v
		for comp[u] == unseen {
			comp[u] = onPath
			u = pre[u]
		}
		if comp[u] == onPath {
			// u is on a fresh cycle; collect it.
			cyc := []int{u}
			comp[u] = numComp
			for x := pre[u]; x != u; x = pre[x] {
				comp[x] = numComp
				cyc = append(cyc, x)
			}
			numComp++
			cycles = append(cycles, cyc)
		}
		// Remaining on-path vertices become singleton components.
		for x := v; comp[x] == onPath; x = pre[x] {
			comp[x] = numComp
			numComp++
		}
	}

	if len(cycles) == 0 {
		return pre
	}

	// Contract: build the reduced instance. For an edge (u, v) entering a
	// cycle vertex v, the adjusted weight discounts the cycle edge it
	// would displace.
	inCycle := make([]bool, m)
	for _, cyc := range cycles {
		for _, v := range cyc {
			inCycle[v] = true
		}
	}
	w2 := make([][]int, numComp)
	eu := make([][]int, numComp) // this-level endpoints achieving w2
	ev := make([][]int, numComp)
	for i := 0; i < numComp; i++ {
		w2[i] = make([]int, numComp)
		eu[i] = make([]int, numComp)
		ev[i] = make([]int, numComp)
		for j := 0; j < numComp; j++ {
			w2[i][j] = infWeight
			eu[i][j] = -1
			ev[i][j] = -1
		}
	}
	for u := 0; u < m; u++ {
		for v := 0; v < m; v++ {
			if u == v || comp[u] == comp[v] {
				continue
			}
			adj := w[u][v]
			if adj >= infWeight {
				continue
			}
			if inCycle[v] {
				adj -= w[pre[v]][v]
			}
			cu, cv := comp[u], comp[v]
			if adj < w2[cu][cv] {
				w2[cu][cv] = adj
				eu[cu][cv] = u
				ev[cu][cv] = v
			}
		}
	}

	sub := solveArb(numComp, comp[r], w2)

	// Expand: cycle edges survive except at each cycle's entry vertex;
	// every component's entry vertex gets the original endpoints of the
	// contracted edge the recursion chose.
	parent := make([]int, m)
	copy(parent, pre)
	for cv := 0; cv < numComp; cv++ {
		if cv == comp[r] {
			continue
		}
		cu := sub[cv]
		u, v := eu[cu][cv], ev[cu][cv]
		parent[v] = u
	}
	return parent
}

// ArborescenceCost sums weight[parent[v]][v] over non-root vertices.
func ArborescenceCost(parent []int, weight [][]int) int {
	total := 0
	for v, p := range parent {
		if p != v {
			total += weight[p][v]
		}
	}
	return total
}

// MinGain plays, each round, a spanning arborescence that minimizes the
// total number of new product-graph edges created this round. The weight
// of edge p → y is |K_p \ K_y| — exactly the knowledge process y would
// gain from parent p — and a minimum arborescence over these weights is
// computed with Chu-Liu/Edmonds for each of a few candidate roots (the
// vertices whose cheapest in-edge is most expensive, since making a vertex
// the root "saves" its in-edge cost).
//
// §2 of the paper proves at least one new edge appears per round while
// broadcast is incomplete, so even this adversary cannot stall forever;
// how close it keeps the per-round gain to that minimum of 1 is measured
// in the matrix-evolution experiment (E8).
type MinGain struct {
	// Roots is the number of candidate roots to try; 0 means 4.
	Roots int
}

// Next implements core.Adversary.
func (a MinGain) Next(v core.View) *tree.Tree {
	n := v.N()
	if n == 1 {
		return tree.MustNew([]int{0})
	}
	weight := make([][]int, n)
	for u := 0; u < n; u++ {
		weight[u] = make([]int, n)
		ku := v.Heard(u)
		for y := 0; y < n; y++ {
			if u == y {
				continue
			}
			weight[u][y] = ku.DifferenceCount(v.Heard(y))
		}
	}

	// Candidate roots: vertices whose cheapest in-edge is most expensive.
	minIn := make([]int, n)
	for y := 0; y < n; y++ {
		best := infWeight
		for u := 0; u < n; u++ {
			if u != y && weight[u][y] < best {
				best = weight[u][y]
			}
		}
		minIn[y] = best
	}
	cands := make([]int, n)
	for i := range cands {
		cands[i] = i
	}
	sort.SliceStable(cands, func(a, b int) bool { return minIn[cands[a]] > minIn[cands[b]] })
	k := a.Roots
	if k <= 0 {
		k = 4
	}
	if k > n {
		k = n
	}

	bestCost := infWeight
	var bestParent []int
	for _, r := range cands[:k] {
		parent := MinArborescence(n, r, weight)
		if c := ArborescenceCost(parent, weight); c < bestCost {
			bestCost = c
			bestParent = parent
		}
	}
	t, err := tree.New(bestParent)
	if err != nil {
		// Unreachable: MinArborescence returns a valid parent array on a
		// complete weight matrix.
		panic(err)
	}
	return t
}

// Reset implements the reusable-adversary contract (MinGain is
// source-free; its arborescence scratch is allocated per round).
func (MinGain) Reset(*rng.Source) {}

var _ core.Adversary = MinGain{}
