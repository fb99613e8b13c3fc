package dyntreecast_test

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"dyntreecast"
)

// The static path of §2: broadcast takes exactly n−1 rounds.
func ExampleBroadcastTime() {
	const n = 8
	rounds, err := dyntreecast.BroadcastTime(n,
		dyntreecast.StaticAdversary(dyntreecast.IdentityPathTree(n)))
	if err != nil {
		panic(err)
	}
	fmt.Println(rounds)
	// Output: 7
}

// Theorem 3.1's sandwich at n = 100.
func ExampleUpperBound() {
	fmt.Println(dyntreecast.LowerBound(100), dyntreecast.UpperBound(100))
	// Output: 148 241
}

// Exact worst-case broadcast time for five processes, by solving the full
// adversary game: it equals the lower bound ⌈(3·5−1)/2⌉−2 = 5.
func ExampleNewExactSolver() {
	s, err := dyntreecast.NewExactSolver(5)
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Value())
	// Output: 5
}

// Driving the engine manually: a star completes broadcast in one round.
func ExampleEngine() {
	e := dyntreecast.NewEngine(6)
	star, _ := dyntreecast.StarTree(6, 0)
	e.Step(star)
	fmt.Println(e.BroadcastDone(), e.Broadcasters().Slice())
	// Output: true [0]
}

// A parallel campaign: the static-path cells complete in exactly n−1
// rounds, and the aggregates are identical for every worker count.
func ExampleRunCampaign() {
	outcome, err := dyntreecast.RunCampaign(context.Background(), dyntreecast.Campaign{
		Scenarios: []dyntreecast.Scenario{{Adversary: "static-path"}},
		Ns:        []int{8, 16},
		Trials:    3,
		Seed:      1,
	}, 0 /* workers: 0 = GOMAXPROCS */)
	if err != nil {
		panic(err)
	}
	for _, cell := range outcome.Cells {
		fmt.Printf("%s mean=%.0f\n", cell.Cell, cell.Mean)
	}
	// Output:
	// static-path/n=8 mean=7
	// static-path/n=16 mean=15
}

// Interrupt a cache-backed campaign, then resume it by running it again
// over the same cache: the cells the first run completed are served from
// the cache, only the rest execute, and the artifact is byte-identical to
// an uninterrupted run's.
func ExampleCampaignWithCache() {
	dir, err := os.MkdirTemp("", "dyntreecast-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cells, err := dyntreecast.NewDirCampaignCache(dir)
	if err != nil {
		panic(err)
	}

	spec := dyntreecast.Campaign{
		Scenarios: []dyntreecast.Scenario{{Adversary: "static-path"}},
		Ns:        []int{8, 16},
		Trials:    4,
		Seed:      1,
	}
	// First run on one worker, cancelled once its first cell (4 trials)
	// is done. (A killed process leaves the cache in the same state.)
	ctx, cancel := context.WithCancel(context.Background())
	interrupted, _ := dyntreecast.RunCampaign(ctx, spec, 1, dyntreecast.CampaignWithCache(cells),
		dyntreecast.CampaignWithProgress(func(done, _ int) {
			if done == spec.Trials {
				cancel()
			}
		}))
	cancel()
	resumed, err := dyntreecast.RunCampaign(context.Background(), spec, 2, dyntreecast.CampaignWithCache(cells))
	if err != nil {
		panic(err)
	}
	uninterrupted, err := dyntreecast.RunCampaign(context.Background(), spec, 2)
	if err != nil {
		panic(err)
	}
	var a, b bytes.Buffer
	if err := resumed.WriteJSON(&a); err != nil {
		panic(err)
	}
	if err := uninterrupted.WriteJSON(&b); err != nil {
		panic(err)
	}
	fmt.Printf("interrupted run completed %d of %d jobs\n", interrupted.Completed, interrupted.Jobs)
	fmt.Printf("rerun executed %d jobs, %d from cache\n", resumed.Executed, resumed.CacheHits)
	fmt.Printf("artifact identical: %v\n", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// interrupted run completed 4 of 8 jobs
	// rerun executed 4 jobs, 4 from cache
	// artifact identical: true
}

// FloodMin consensus decides the global minimum once gossip completes.
func ExampleFloodMin() {
	res, err := dyntreecast.FloodMin([]int{7, 3, 9, 5},
		dyntreecast.RandomAdversary(dyntreecast.NewRand(1)))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Decision)
	// Output: 3
}

// Register a custom parameterized adversary family and sweep its
// parameter as a scenario axis. The family becomes addressable from
// campaign specs, cmd/campaign -scenario, and campaignd exactly like the
// built-ins — cache and resume included.
func ExampleRegisterAdversary() {
	err := dyntreecast.RegisterAdversary(dyntreecast.AdversaryFamily{
		Name: "example-star",
		Doc:  "the star rooted at a fixed process",
		Params: []dyntreecast.AdversaryParam{
			{Name: "root", Kind: dyntreecast.IntParam, Default: 0, Doc: "the star's root"},
		},
		Feasible: func(n int, p dyntreecast.AdversaryParams) bool {
			return p.Int("root") < n
		},
		NewReusable: func(n int, p dyntreecast.AdversaryParams) (dyntreecast.ReusableAdversary, error) {
			star, err := dyntreecast.StarTree(n, p.Int("root"))
			if err != nil {
				return nil, err
			}
			return fixedStar{star}, nil
		},
	})
	if err != nil {
		panic(err)
	}
	outcome, err := dyntreecast.RunCampaign(context.Background(), dyntreecast.Campaign{
		Scenarios: []dyntreecast.Scenario{
			{Adversary: "example-star", Params: map[string]any{"root": []any{0, 5}}},
		},
		Ns:     []int{4, 8}, // root=5 is infeasible at n=4 and skipped
		Trials: 2,
		Seed:   1,
	}, 0)
	if err != nil {
		panic(err)
	}
	for _, cell := range outcome.Cells {
		fmt.Printf("%s mean=%.0f\n", cell.Cell, cell.Mean)
	}
	// Output:
	// example-star/n=4/root=0 mean=1
	// example-star/n=8/root=0 mean=1
	// example-star/n=8/root=5 mean=1
}

// fixedStar plays one star every round. It is source-free, so its Reset
// (the ReusableAdversary hook) is a no-op.
type fixedStar struct{ star *dyntreecast.Tree }

func (a fixedStar) Next(dyntreecast.View) *dyntreecast.Tree { return a.star }
func (fixedStar) Reset(*dyntreecast.Rand)                   {}
