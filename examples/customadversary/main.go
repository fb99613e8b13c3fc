// Customadversary: plugging your own parameterized adversary family into
// the campaign engine.
//
// The campaign layer's adversary registry is open: RegisterAdversary adds
// a family — name, declared parameters with kinds and defaults, an
// optional feasibility contract, and a constructor — and from that moment
// scenarios naming it work everywhere a built-in would: campaign specs,
// the cell cache (and resume from it), cmd/campaign -scenario flags, and
// campaignd submissions. This example registers a "strided-path" family
// (the drifting path that visits every step-th process) and sweeps its
// stride parameter as a scenario axis.
//
// Run with:
//
//	go run ./examples/customadversary
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dyntreecast"
)

// stridedPath plays, in round t, the path visiting (i·step + t) mod n in
// order i = 0…n−1 — a drifting path whose consecutive hops jump step
// processes apart. It is a permutation (and hence a valid path) exactly
// when gcd(step, n) = 1, which the family's Feasible contract below
// encodes so infeasible grid points are skipped instead of failing.
type stridedPath struct{ step int }

// Reset implements dyntreecast.ReusableAdversary; the schedule is
// source-free, so there is nothing to rebind.
func (stridedPath) Reset(*dyntreecast.Rand) {}

// Next implements dyntreecast.Adversary.
func (a stridedPath) Next(v dyntreecast.View) *dyntreecast.Tree {
	n := v.N()
	order := make([]int, n)
	for i := range order {
		order[i] = (i*a.step + v.Round()) % n
	}
	t, err := dyntreecast.PathTree(order)
	if err != nil {
		return nil
	}
	return t
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func main() {
	err := dyntreecast.RegisterAdversary(dyntreecast.AdversaryFamily{
		Name: "strided-path",
		Doc:  "drifting path with hops step processes apart",
		Params: []dyntreecast.AdversaryParam{
			{Name: "step", Kind: dyntreecast.IntParam, Default: 1, Doc: "hop stride (must be coprime with n)"},
		},
		Check: func(p dyntreecast.AdversaryParams) error {
			if p.Int("step") < 1 {
				return fmt.Errorf("step must be >= 1, got %d", p.Int("step"))
			}
			return nil
		},
		Feasible: func(n int, p dyntreecast.AdversaryParams) bool {
			return gcd(p.Int("step"), n) == 1 // otherwise the stride is no permutation
		},
		NewReusable: func(_ int, p dyntreecast.AdversaryParams) (dyntreecast.ReusableAdversary, error) {
			return stridedPath{step: p.Int("step")}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The step param as a scenario axis: one grid cell per feasible
	// (step, n) pair — step 2 is skipped at the even n below.
	outcome, err := dyntreecast.RunCampaign(context.Background(), dyntreecast.Campaign{
		Name: "strided-path sweep",
		Scenarios: []dyntreecast.Scenario{
			{Adversary: "strided-path", Params: map[string]any{"step": []any{1, 2, 3, 5, 7}}},
		},
		Ns:     []int{16, 32},
		Trials: 1, // the schedule is deterministic; one trial per cell suffices
		Seed:   1,
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	if outcome.Failed > 0 {
		log.Fatalf("%d cells failed: %v", outcome.Failed, outcome.Errors)
	}

	fmt.Println("strided-path broadcast times (cells are scenario × n):")
	for _, cell := range outcome.Cells {
		fmt.Printf("  %-28s t* = %.0f\n", cell.Cell, cell.Mean)
	}
	fmt.Println("\nEvery coprime stride stalls broadcast to the static-path value t* = n-1,")
	fmt.Println("and step=2 was skipped at these even n by the family's Feasible contract.")
	fmt.Println("The same family now also works via:")
	fmt.Println(`  campaign -scenario '{"adversary":"strided-path","params":{"step":[1,3,5]}}' -ns 32 -trials 1`)
	os.Exit(0)
}
