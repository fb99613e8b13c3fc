// Command broadcast-sim runs one broadcast (or gossip) simulation under a
// chosen adversary and prints the per-round matrix-evolution trace — the
// quantities the paper's analysis tracks (experiment E8).
//
// Usage:
//
//	broadcast-sim -n 32 -adversary ascending-path -trace
//	broadcast-sim -n 16 -adversary random-tree -seed 7 -goal gossip -json
//	broadcast-sim -n 64 -adversary random-tree -trials 100 -workers 4
//
// With -trials > 1 the run becomes a mini-campaign: a one-scenario
// campaign spec over any registered family, whose trials execute on the
// campaign worker pool (each with a deterministically derived source,
// so the summary is identical for every -workers value), and a
// count/mean/min/max/p50/p99 summary replaces the single-run trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/core"
	"dyntreecast/internal/experiment"
	"dyntreecast/internal/gamesolver"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "broadcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("broadcast-sim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 16, "number of processes")
		advName  = fs.String("adversary", "ascending-path", "adversary: "+strings.Join(advNames(), ", "))
		seed     = fs.Uint64("seed", 1, "random seed")
		goalName = fs.String("goal", "broadcast", "goal: broadcast or gossip")
		showTr   = fs.Bool("trace", false, "print the per-round trace table")
		asJSON   = fs.Bool("json", false, "print the trace as JSON instead of text")
		maxR     = fs.Int("max-rounds", 0, "round budget (0 = n^2+1)")
		trials   = fs.Int("trials", 1, "trials; > 1 aggregates a parallel mini-campaign instead of tracing one run")
		workers  = fs.Int("workers", 0, "worker pool for -trials > 1 (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("n must be >= 1, got %d", *n)
	}
	if *trials < 1 {
		return fmt.Errorf("trials must be >= 1, got %d", *trials)
	}
	if *trials > 1 {
		if *showTr || *asJSON {
			return fmt.Errorf("-trace/-json need a single run; drop them or use -trials 1")
		}
		// The search strata are deterministic functions of -seed and ignore
		// per-trial sources: N trials would just repeat one expensive search.
		if *advName == "beam-search" || *advName == "exact-optimal" {
			return fmt.Errorf("adversary %q is deterministic given -seed; -trials > 1 would repeat the identical search", *advName)
		}
	}

	goal := core.Broadcast
	switch *goalName {
	case "broadcast":
	case "gossip":
		goal = core.Gossip
	default:
		return fmt.Errorf("unknown goal %q", *goalName)
	}
	if *trials > 1 {
		return runTrials(campaign.Spec{Scenarios: []campaign.Scenario{{Adversary: *advName}},
			Ns: []int{*n}, Trials: *trials, Seed: *seed, Goal: *goalName, MaxRounds: *maxR}, *workers)
	}

	newAdv, err := adversaryFactory(*advName, *n, *seed)
	if err != nil {
		return err
	}
	adv := newAdv(rng.New(*seed))

	var rec trace.Recorder
	opts := []core.Option{core.WithObserver(rec.Observer())}
	if *maxR > 0 {
		opts = append(opts, core.WithMaxRounds(*maxR))
	}
	res, err := core.Run(*n, adv, goal, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("n=%d adversary=%s goal=%s: completed in %d rounds\n",
		*n, *advName, goal, res.Rounds)
	fmt.Printf("bounds: lower=%d upper=%d (measured/n = %.3f)\n",
		bounds.Lower(*n), bounds.UpperLinear(*n), float64(res.Rounds)/float64(*n))
	if goal == core.Broadcast {
		fmt.Printf("broadcasters: %v\n", res.Broadcasters)
		if err := bounds.CheckSandwich(*n, res.Rounds); err != nil {
			return err
		}
	}
	if *showTr || *asJSON {
		if *asJSON {
			return rec.WriteJSON(os.Stdout)
		}
		return rec.WriteTable(os.Stdout)
	}
	return nil
}

// runTrials runs a one-scenario, one-n spec on the campaign pool and
// prints the aggregate. Trials draw the campaign's content-addressed
// streams, so the summary is the same for every worker count.
func runTrials(spec campaign.Spec, workers int) error {
	o, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: workers})
	if err != nil {
		return err
	}
	if o.Failed > 0 {
		return fmt.Errorf("%d/%d trials failed (first: %s)", o.Failed, o.Jobs, o.Errors[0])
	}
	n, cell := spec.Ns[0], o.Cells[0]
	fmt.Printf("n=%d adversary=%s goal=%s trials=%d\n", n, spec.Scenarios[0].Adversary, spec.Goal, spec.Trials)
	fmt.Printf("rounds: mean=%.2f sd=%.2f min=%g p50=%g p99=%g max=%g\n",
		cell.Mean, cell.StdDev, cell.Min, cell.P50, cell.P99, cell.Max)
	fmt.Printf("bounds: lower=%d upper=%d (mean/n = %.3f)\n",
		bounds.Lower(n), bounds.UpperLinear(n), cell.Mean/float64(n))
	if spec.Goal == "broadcast" {
		if err := bounds.CheckSandwich(n, int(cell.Max)); err != nil {
			return err
		}
	}
	return nil
}

func advNames() []string {
	names := make([]string, 0, 8)
	for _, na := range experiment.Portfolio() {
		names = append(names, na.Name)
	}
	return append(names, "beam-search", "exact-optimal")
}

// adversaryFactory resolves the named adversary once and returns its
// per-trial constructor. Portfolio families build a fresh adversary from
// each trial's source; the search strata are deterministic given seed, so
// their search runs here, once, and every trial shares the read-only
// result.
func adversaryFactory(name string, n int, seed uint64) (func(src *rng.Source) core.Adversary, error) {
	for _, na := range experiment.Portfolio() {
		if na.Name == name {
			return func(src *rng.Source) core.Adversary { return na.New(n, src) }, nil
		}
	}
	var adv core.Adversary
	switch name {
	case "beam-search":
		adv, _ = adversary.BeamSearch(n, adversary.BeamConfig{Width: 16, Seed: seed})
	case "exact-optimal":
		s, err := gamesolver.New(n)
		if err != nil {
			return nil, err
		}
		adv = gamesolver.Optimal{S: s}
	default:
		return nil, fmt.Errorf("unknown adversary %q (known: %s)",
			name, strings.Join(advNames(), ", "))
	}
	return func(*rng.Source) core.Adversary { return adv }, nil
}
