// Package dyntreecast benchmarks: one benchmark per experiment in
// DESIGN.md §4 (the paper's Figure 1 plus the quantitative claims of §2,
// §3 and the related-work connections), plus engine ablations.
//
// Benchmarks report the measured scientific quantity via b.ReportMetric
// (rounds, ratios, state counts) in addition to the usual ns/op, so
// `go test -bench . -benchmem` regenerates every number in
// EXPERIMENTS.md.
package dyntreecast_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dyntreecast"
	"dyntreecast/internal/adversary"
	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/consensus"
	"dyntreecast/internal/core"
	"dyntreecast/internal/experiment"
	"dyntreecast/internal/gamesolver"
	"dyntreecast/internal/gossip"
	"dyntreecast/internal/graph"
	"dyntreecast/internal/nonsplit"
	"dyntreecast/internal/procs"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/trace"
	"dyntreecast/internal/tree"
)

// BenchmarkFigure1 (E1) regenerates the Figure 1 comparison: best measured
// broadcast time per n across the adversary suite, against every bound
// curve. The reported metrics are the table's "measured" column.
func BenchmarkFigure1(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var best int
			for i := 0; i < b.N; i++ {
				var err error
				best, _, err = experiment.BestMeasured(n, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := bounds.CheckSandwich(n, best); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(best), "t*_measured")
			b.ReportMetric(float64(bounds.UpperLinear(n)), "upper")
			b.ReportMetric(float64(bounds.Lower(n)), "lower")
			b.ReportMetric(float64(bounds.NLogLogN(n)), "nloglogn")
			b.ReportMetric(float64(bounds.NLogN(n)), "nlogn")
		})
	}
}

// BenchmarkTheorem31 (E2) verifies the sandwich at every n in the sweep:
// no adversary may exceed ⌈(1+√2)n−1⌉.
func BenchmarkTheorem31(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var best int
			for i := 0; i < b.N; i++ {
				var err error
				best, _, err = experiment.BestMeasured(n, 1)
				if err != nil {
					b.Fatal(err)
				}
				if best > bounds.UpperLinear(n) {
					b.Fatalf("Theorem 3.1 violated: t*=%d > %d at n=%d",
						best, bounds.UpperLinear(n), n)
				}
			}
			b.ReportMetric(float64(best)/float64(n), "t*/n")
		})
	}
}

// BenchmarkStaticPath (E3) reproduces §2's t*(static path) = n−1.
func BenchmarkStaticPath(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			adv := adversary.Static{Tree: tree.IdentityPath(n)}
			var rounds int
			for i := 0; i < b.N; i++ {
				var err error
				rounds, err = core.BroadcastTime(n, adv)
				if err != nil {
					b.Fatal(err)
				}
			}
			if rounds != n-1 {
				b.Fatalf("static path t* = %d, want %d", rounds, n-1)
			}
			b.ReportMetric(float64(rounds), "t*")
		})
	}
}

// BenchmarkEdgeGrowth (E4) verifies the §2 growth lemma (≥1 new product
// edge per round before completion) on adversarial runs and reports the
// minimum per-round growth observed.
func BenchmarkEdgeGrowth(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			minGrowth := n * n
			for i := 0; i < b.N; i++ {
				var rec trace.Recorder
				_, err := core.Run(n, &adversary.AscendingPath{}, core.Broadcast,
					core.WithObserver(rec.Observer()))
				if err != nil {
					b.Fatal(err)
				}
				if bad := trace.VerifyGrowth(rec.Records()); bad != nil {
					b.Fatalf("growth lemma violated at round %d", bad.Round)
				}
				for _, r := range rec.Records() {
					if r.NewEdges < minGrowth {
						minGrowth = r.NewEdges
					}
				}
			}
			b.ReportMetric(float64(minGrowth), "min_new_edges")
		})
	}
}

// BenchmarkRestricted (E5) measures the k-leaf and k-inner restricted
// regimes: t* stays linear in n for fixed k.
func BenchmarkRestricted(b *testing.B) {
	for _, k := range []int{2, 4} {
		for _, n := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("k%d/n%d", k, n), func(b *testing.B) {
				src := rng.New(uint64(n)*100 + uint64(k))
				total, runs := 0, 0
				for i := 0; i < b.N; i++ {
					rounds, err := core.BroadcastTime(n, adversary.NewKLeaves(k, src))
					if err != nil {
						b.Fatal(err)
					}
					total += rounds
					runs++
				}
				b.ReportMetric(float64(total)/float64(runs), "t*_mean")
				b.ReportMetric(float64(total)/float64(runs)/float64(n), "t*/n")
			})
		}
	}
}

// BenchmarkNonsplit (E6) checks the [1] simulation lemma: products of n−1
// rooted trees are nonsplit.
func BenchmarkNonsplit(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			src := rng.New(uint64(n))
			trees := make([]*tree.Tree, n-1)
			for i := 0; i < b.N; i++ {
				for j := range trees {
					trees[j] = tree.Random(n, src)
				}
				if !graph.ProductOfTrees(trees).IsNonsplit() {
					b.Fatalf("n=%d: product of n-1 trees not nonsplit", n)
				}
			}
			b.ReportMetric(1, "nonsplit_fraction")
		})
	}
}

// BenchmarkExact (E7) times the exact game solver and reports t*(Tn) and
// the canonical state count.
func BenchmarkExact(b *testing.B) {
	want := map[int]int{2: 1, 3: 2, 4: 4, 5: 5}
	for n := 2; n <= 5; n++ {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var v, states int
			for i := 0; i < b.N; i++ {
				s, err := gamesolver.New(n)
				if err != nil {
					b.Fatal(err)
				}
				v = s.Value()
				states = s.StatesExplored()
			}
			if v != want[n] {
				b.Fatalf("t*(T%d) = %d, want %d", n, v, want[n])
			}
			b.ReportMetric(float64(v), "t*")
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkMatrixEvolution (E8) runs the instrumented engine under the
// strongest deterministic heuristic and reports the matrix quantities the
// paper's proof tracks at completion time.
func BenchmarkMatrixEvolution(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var final core.Result
			for i := 0; i < b.N; i++ {
				var err error
				final, err = core.Run(n, &adversary.AscendingPath{}, core.Broadcast)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(final.Rounds), "t*")
			b.ReportMetric(float64(final.FinalStats.Edges), "final_edges")
			b.ReportMetric(float64(final.FinalStats.MinRow), "final_min_row")
		})
	}
}

// BenchmarkGossip (E9) measures the gossip/broadcast ratio under random
// adversaries.
func BenchmarkGossip(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			src := rng.New(uint64(n))
			var sumB, sumG int
			for i := 0; i < b.N; i++ {
				bt, gt, err := gossip.BothTimes(n, adversary.NewRandom(src.Split()))
				if err != nil {
					b.Fatal(err)
				}
				sumB += bt
				sumG += gt
			}
			b.ReportMetric(float64(sumG)/float64(sumB), "gossip/broadcast")
		})
	}
}

// BenchmarkEngines is the engine ablation: column-oriented (fast path),
// row-oriented matrix engine, and the goroutine message-passing system on
// identical workloads.
func BenchmarkEngines(b *testing.B) {
	const n = 256
	src := rng.New(1)
	trees := make([]*tree.Tree, 64)
	for i := range trees {
		trees[i] = tree.Random(n, src)
	}
	b.Run("column", func(b *testing.B) {
		e := core.NewEngine(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Step(trees[i%len(trees)])
		}
	})
	b.Run("matrix", func(b *testing.B) {
		e := core.NewMatrixEngine(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Step(trees[i%len(trees)])
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		s := procs.New(n)
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(trees[i%len(trees)])
		}
	})
}

// BenchmarkSolverCanonicalization is the solver ablation: permutation
// canonicalization on vs off at n = 4 (both must agree on the value).
func BenchmarkSolverCanonicalization(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := gamesolver.New(4)
			if s.Value() != 4 {
				b.Fatal("wrong value")
			}
		}
	})
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := gamesolver.New(4, gamesolver.WithoutCanonicalization())
			if s.Value() != 4 {
				b.Fatal("wrong value")
			}
		}
	})
}

// BenchmarkPublicAPI exercises the facade end to end (the quickstart
// flow) so API overhead is visible.
func BenchmarkPublicAPI(b *testing.B) {
	r := dyntreecast.NewRand(1)
	for i := 0; i < b.N; i++ {
		if _, err := dyntreecast.BroadcastTime(64, dyntreecast.RandomAdversary(r)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNonsplitGame (E6b, the §5 extension) measures broadcast under
// nonsplit-restricted adversaries: the O(log log n) regime, versus the
// linear rooted-tree regime.
func BenchmarkNonsplitGame(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				var err error
				rounds, err = nonsplit.Time(n, nonsplit.LazyCover{}, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds), "t*")
			b.ReportMetric(float64(bounds.Lower(n)), "tree_lower")
		})
	}
}

// BenchmarkTrialHotPath measures one complete broadcast trial per op on
// the campaign pipeline's execution pattern: one pooled core.Runner plus
// one adversary built through the registry's Family.NewReusable and
// warmed, then Reset to the trial's source and run per op. There is one
// batched/<family>/n64 row per built-in family except the search-backed
// ones (their cost is the offline search, not the trial), plus
// random-tree rows at n = 256 and n = 1024 and a block-leader row at
// n = 256 (the heuristic-mix shape, four words per heard row, where the
// cost of the adversary's reach counts shows). Every row but min-gain, whose
// arborescence scratch is allocated per round, must run at 0 allocs/op;
// scripts/benchdiff.sh gates the rows against scripts/bench-baseline.txt.
func BenchmarkTrialHotPath(b *testing.B) {
	type row struct {
		family string
		n      int
	}
	var rows []row
	for _, f := range []string{"static-path", "random-tree", "random-path", "ascending-path", "block-leader",
		"min-gain", "k-leaves", "k-inner", "two-phase-path", "stale-ascending"} {
		rows = append(rows, row{f, 64})
	}
	rows = append(rows, row{"random-tree", 256}, row{"random-tree", 1024}, row{"block-leader", 256})
	families := map[string]campaign.Family{}
	for _, f := range campaign.Families() {
		families[f.Name] = f
	}
	for _, r := range rows {
		b.Run(fmt.Sprintf("batched/%s/n%d", r.family, r.n), func(b *testing.B) {
			sc := campaign.Scenario{Adversary: r.family}
			if r.family == "k-leaves" || r.family == "k-inner" {
				sc.Params = map[string]any{"k": 4}
			}
			grounds, err := campaign.GroundScenarios(sc)
			if err != nil {
				b.Fatal(err)
			}
			adv, err := families[r.family].NewReusable(r.n, campaign.Params(grounds[0].Params))
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(1)
			runner := core.NewRunner()
			// Warm the adversary and runner so the steady state is
			// measured; the one-time buffer growth is amortized over a
			// cell's trials in real runs.
			adv.Reset(src)
			if _, err := runner.Run(r.n, adv, core.Broadcast); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv.Reset(src)
				if _, err := runner.Run(r.n, adv, core.Broadcast); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignParallel measures the campaign runner on a
// random-adversary grid: serial (workers=1) versus the GOMAXPROCS worker
// pool on the identical spec. Both sub-benchmarks report simulated
// rounds/sec; the parallel one additionally reports its speedup over the
// serial per-run time measured in the same process. (On a single-core
// host the speedup hovers around 1; the campaign's value there is
// cancellation and streaming aggregation, not throughput.)
func BenchmarkCampaignParallel(b *testing.B) {
	spec := campaign.Spec{
		Name:      "bench",
		Scenarios: []dyntreecast.Scenario{{Adversary: "random-tree"}},
		Ns:        []int{64, 128},
		Trials:    32,
		Seed:      1,
	}
	totalRounds := func(o *campaign.Outcome) float64 {
		sum := 0.0
		for _, c := range o.Cells {
			sum += c.Mean * float64(c.Count)
		}
		return sum
	}
	runOnce := func(workers int) (float64, error) {
		o, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: workers})
		if err != nil {
			return 0, err
		}
		if err := errFromOutcome(o); err != nil {
			return 0, err
		}
		return totalRounds(o), nil
	}
	var serialPerOp time.Duration
	b.Run("serial", func(b *testing.B) {
		var rounds float64
		for i := 0; i < b.N; i++ {
			var err error
			if rounds, err = runOnce(1); err != nil {
				b.Fatal(err)
			}
		}
		serialPerOp = b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(rounds*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	})
	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		var rounds float64
		for i := 0; i < b.N; i++ {
			var err error
			if rounds, err = runOnce(workers); err != nil {
				b.Fatal(err)
			}
		}
		perOp := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(rounds*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		b.ReportMetric(float64(workers), "workers")
		if serialPerOp > 0 && perOp > 0 {
			b.ReportMetric(float64(serialPerOp)/float64(perOp), "speedup")
		}
	})
}

func errFromOutcome(o *campaign.Outcome) error {
	if o.Failed > 0 {
		return fmt.Errorf("%d campaign jobs failed: %s", o.Failed, o.Errors[0])
	}
	return nil
}

// BenchmarkConsensus (E10 extension) measures FloodMin termination under
// random adversaries.
func BenchmarkConsensus(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			src := rng.New(uint64(n))
			proposals := make([]int, n)
			for i := range proposals {
				proposals[i] = i * 3 % n
			}
			var last int
			for i := 0; i < b.N; i++ {
				res, err := consensus.FloodMin(proposals, adversary.NewRandom(src.Split()))
				if err != nil {
					b.Fatal(err)
				}
				last = res.Rounds
			}
			b.ReportMetric(float64(last), "rounds")
		})
	}
}
