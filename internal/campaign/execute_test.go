package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/stats"
)

// countedResets counts the Resets of every t-counted-random-tree
// adversary: one per executed trial.
var countedResets atomic.Int64

// countedReset is a random-tree adversary that counts its Resets.
type countedReset struct{ ReusableAdversary }

func (c countedReset) Reset(src *rng.Source) {
	countedResets.Add(1)
	c.ReusableAdversary.Reset(src)
}

func init() {
	rt, ok := familyByName("random-tree")
	if !ok {
		panic("random-tree not registered")
	}
	if err := Register(Family{
		Name: "t-counted-random-tree",
		Doc:  "random-tree, counting executed trials",
		NewReusable: func(n int, p Params) (ReusableAdversary, error) {
			inner, err := rt.NewReusable(n, p)
			return countedReset{inner}, err
		},
	}); err != nil {
		panic(err)
	}
}

// duplicateSpec lists one scenario twice and one n twice: six grid
// cells, two content addresses.
func duplicateSpec() Spec {
	return Spec{
		Scenarios: named("t-counted-random-tree", "t-counted-random-tree"),
		Ns:        []int{8, 8, 5},
		Trials:    7,
		Seed:      3,
	}
}

// duplicateGolden is the SHA-256 of duplicateSpec()'s WriteJSON artifact
// as a build that executed every listing of a cell produced it: jobs and
// completed count all six listings, and each of the two cells pools its
// three copies.
const duplicateGolden = "0abcbe150d5ab12882ccc8eb6a6c76403789d8d2eb66a092d3a9f5fbee08016c"

// TestDuplicateCellsRunOnce: a grid that lists a cell more than once
// executes each content address once — locally, through the remote pool
// and from a remote worker alike — yet reports every listing, so the
// artifact is the one a build that ran every listing wrote.
func TestDuplicateCellsRunOnce(t *testing.T) {
	spec := duplicateSpec()
	const distinct = 2
	remoteAll := &fakeRemote{takes: func(int, CellJob) bool { return true }, shard: 3}
	remoteNone := &fakeRemote{takes: func(int, CellJob) bool { return false }}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"local 1 worker", Config{Workers: 1}},
		{"local 3 workers", Config{Workers: 3}},
		{"remote workers", Config{Workers: 2, Remote: remoteAll}},
		{"remote session, local pool", Config{Workers: 2, Remote: remoteNone}},
	} {
		countedResets.Store(0)
		reported := 0
		tc.cfg.OnResult = func(TrialResult) { reported++ }
		out, err := RunSpec(context.Background(), spec, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := countedResets.Load(); got != distinct*int64(spec.Trials) {
			t.Errorf("%s: %d trials executed, want %d", tc.name, got, distinct*spec.Trials)
		}
		if reported != out.Jobs || out.Jobs != 6*spec.Trials || out.Completed != out.Jobs {
			t.Errorf("%s: OnResult saw %d trials, jobs/completed %d/%d; want %d each",
				tc.name, reported, out.Jobs, out.Completed, 6*spec.Trials)
		}
		sum := sha256.Sum256(artifactBytes(t, out))
		if got := hex.EncodeToString(sum[:]); got != duplicateGolden {
			t.Errorf("%s: artifact digest %s, want %s", tc.name, got, duplicateGolden)
		}
	}

	// A cache run stores each address once and a warm rerun executes
	// nothing.
	c := cache.NewMemory()
	if _, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c}); err != nil {
		t.Fatal(err)
	}
	countedResets.Store(0)
	warm, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if countedResets.Load() != 0 || warm.CacheHits != warm.Jobs {
		t.Errorf("warm rerun: %d trials executed, %d of %d jobs from cache", countedResets.Load(), warm.CacheHits, warm.Jobs)
	}
	// Over a superset grid, progress counts the cached trials from the
	// start and runs to the total.
	wider := spec
	wider.Ns = append(wider.Ns, 6)
	var first, last, total int
	out, err := RunSpec(context.Background(), wider, Config{Workers: 2, Cache: c, Progress: func(done, tot int) {
		if first == 0 {
			first = done
		}
		last, total = done, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if first != out.CacheHits+1 || last != out.Jobs || total != out.Jobs {
		t.Errorf("progress ran %d..%d of %d; want %d..%d of %d", first, last, total, out.CacheHits+1, out.Jobs, out.Jobs)
	}
}

// TestSummarizeMatchesStats pins the one-sort summarizer to
// internal/stats bit for bit — Mean and StdDev folded in observation
// order, Min, Max, P50 and P99 by stats.Percentile — on random,
// tie-heavy and single-trial samples, for round counts and for the
// adapter's float measurements.
func TestSummarizeMatchesStats(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var samples [][]uint32
	for _, n := range []int{1, 2, 3, 100, 1001} {
		random, ties := make([]uint32, n), make([]uint32, n)
		for i := range random {
			random[i] = uint32(r.Int63n(1 << 20))
			ties[i] = uint32(3 + r.Intn(3))
		}
		samples = append(samples, random, ties)
	}
	samples = append(samples, []uint32{0}, []uint32{maxEntryRounds, 0, maxEntryRounds})
	for _, xs := range samples {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		s := stats.Summarize(fs)
		want := CellStats{Cell: "c", Count: s.Count, Mean: s.Mean, StdDev: s.StdDev, Min: s.Min, Max: s.Max,
			P50: stats.Percentile(fs, 50), P99: stats.Percentile(fs, 99)}
		if got := SummarizeRounds("c", xs); got != want {
			t.Errorf("%d rounds: SummarizeRounds = %+v, stats %+v", len(xs), got, want)
		}
		var sorted []float64
		if got := summarize("c", fs, &sorted); got != want {
			t.Errorf("%d values: summarize = %+v, stats %+v", len(xs), got, want)
		}
	}
}

// TestRunSpecAllocsIndependentOfTrials: RunSpec builds nothing per
// trial. A warm rerun allocates the same at 10 and at 10⁵ trials per
// cell, and a cold run's allocations grow with cells and workers, not
// with trials.
func TestRunSpecAllocsIndependentOfTrials(t *testing.T) {
	ctx := context.Background()
	spec := func(trials int) Spec {
		return Spec{Scenarios: named("random-tree"), Ns: []int{2, 3}, Trials: trials, Seed: 1}
	}
	run := func(spec Spec, cfg Config) {
		if out, err := RunSpec(ctx, spec, cfg); err != nil || out.Completed != out.Jobs {
			t.Fatalf("RunSpec: %v", err)
		}
	}
	warm := func(trials int) float64 {
		c := cache.NewMemory()
		run(spec(trials), Config{Workers: 2, Cache: c})
		return testing.AllocsPerRun(5, func() { run(spec(trials), Config{Workers: 2, Cache: c}) })
	}
	cold := func(trials int) float64 {
		return testing.AllocsPerRun(3, func() { run(spec(trials), Config{Workers: 2}) })
	}
	const slack = 4 // per cell: the pool's batches and goroutines vary a little
	for _, path := range []struct {
		name string
		runs func(trials int) float64
	}{{"warm", warm}, {"cold", cold}} {
		few, many := path.runs(10), path.runs(100_000)
		t.Logf("%s RunSpec: %v allocations at 10 trials per cell, %v at 10⁵", path.name, few, many)
		if many > few+2*slack {
			t.Errorf("%s RunSpec allocates per trial: %v allocations at 10⁵ trials per cell, %v at 10", path.name, many, few)
		}
	}
}

// TestExecutorRangesMatchWholeCell: the cell executor gives every trial
// the same round count whatever ranges it runs in, in whatever order,
// on one arena that also moves between cells — trial i's stream depends
// on its index alone.
func TestExecutorRangesMatchWholeCell(t *testing.T) {
	spec := Spec{Scenarios: named("random-tree", "random-path"), Ns: []int{9}, Trials: 20, Seed: 4}
	cells, _, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *cellPlan, a *Arena, lo, hi int, rounds []uint32) {
		ran := c.execute(context.Background(), lo, hi, a, rounds[lo:hi], func(_ int, err error) bool {
			if err != nil {
				t.Fatal(err)
			}
			return true
		})
		if ran != hi-lo {
			t.Fatalf("ran %d of [%d,%d)", ran, lo, hi)
		}
	}
	want := make([][]uint32, len(cells))
	for i := range cells {
		want[i] = make([]uint32, spec.Trials)
		run(&cells[i], NewArena(), 0, spec.Trials, want[i])
	}
	got := [][]uint32{make([]uint32, spec.Trials), make([]uint32, spec.Trials)}
	a := NewArena()
	for _, r := range []struct{ cell, lo, hi int }{
		{0, 12, 20}, {0, 5, 8}, {1, 0, 10}, {0, 0, 5}, {0, 8, 12}, {1, 15, 20}, {1, 10, 15},
	} {
		run(&cells[r.cell], a, r.lo, r.hi, got[r.cell])
	}
	for i := range cells {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s: ranges %v, whole cell %v", cells[i].Cell, got[i], want[i])
		}
	}
}

// TestRunSpecMatchesJobAdapter cross-checks the cell executor against the
// job-per-trial adapter (Compile, Run, Aggregate) on grids with listed
// twice cells and with cells whose trials partly fail: cells, counts and
// errors must agree.
func TestRunSpecMatchesJobAdapter(t *testing.T) {
	mixed := Spec{Scenarios: named("random-tree", "random-path"), Ns: []int{8, 7, 8}, Trials: 12, Seed: 6,
		Goal: "gossip", MaxRounds: 7}
	for name, spec := range map[string]Spec{"batch": batchSpec(), "duplicates": duplicateSpec(), "mixed failures": mixed} {
		jobs, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		results, err := Run(context.Background(), jobs, Config{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := Outcome{Jobs: len(jobs), Cells: Aggregate(results)}
		for _, r := range results {
			if r.Err != nil {
				want.Failed++
				want.Errors = append(want.Errors, r.Err.Error())
			} else {
				want.Completed++
			}
		}
		for _, workers := range []int{1, 4} {
			got, err := RunSpec(context.Background(), spec, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Jobs != want.Jobs || got.Completed != want.Completed || got.Failed != want.Failed ||
				!slices.Equal(got.Errors, want.Errors) || !slices.Equal(got.Cells, want.Cells) {
				t.Errorf("%s, workers=%d: RunSpec %d/%d/%d %v %v; adapter %d/%d/%d %v %v", name, workers,
					got.Jobs, got.Completed, got.Failed, got.Errors, got.Cells,
					want.Jobs, want.Completed, want.Failed, want.Errors, want.Cells)
			}
		}
		if name == "mixed failures" && (want.Failed == 0 || want.Completed == 0) {
			t.Errorf("mixed grid: %d completed, %d failed; want some of each", want.Completed, want.Failed)
		}
	}
}
