package dyntreecast_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

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
		Adversaries: []string{"static-path"},
		Ns:          []int{8, 16},
		Trials:      3,
		Seed:        1,
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

// Checkpoint a campaign, then resume it: the checkpointed jobs are
// reused, not recomputed, and the artifact is byte-identical to the
// original run's.
func ExampleResumeCampaign() {
	dir, err := os.MkdirTemp("", "dyntreecast-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	checkpoint := filepath.Join(dir, "sweep.ckpt")

	spec := dyntreecast.Campaign{
		Adversaries: []string{"static-path"},
		Ns:          []int{8},
		Trials:      4,
		Seed:        1,
	}
	// First run, recording every completed job. (A killed run would leave
	// a partial checkpoint; resuming completes the remainder.)
	first, err := dyntreecast.RunCampaign(context.Background(), spec, 2,
		dyntreecast.CampaignWithCheckpoint(checkpoint))
	if err != nil {
		panic(err)
	}
	resumed, err := dyntreecast.ResumeCampaign(context.Background(), spec, checkpoint, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("first run executed %d jobs; resume executed %d, reused %d\n",
		first.Executed, resumed.Executed, resumed.Reused)
	fmt.Printf("means agree: %v\n", first.Cells[0].Mean == resumed.Cells[0].Mean)
	// Output:
	// first run executed 4 jobs; resume executed 0, reused 4
	// means agree: true
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
// built-ins — cache, checkpoint, and resume included.
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
