// Command sweep regenerates any experiment of the reproduction as a text
// table or CSV. One subcommand flag per experiment in DESIGN.md §4, plus
// the generic scenario grid (-exp grid), which sweeps any registered
// adversary family — built-in or custom — through the campaign runner.
//
// Usage:
//
//	sweep -exp figure1
//	sweep -exp theorem31 -ns 2,4,8,16,32 -csv
//	sweep -exp restricted -ns 16,32 -ks 2,4,8 -trials 10
//	sweep -exp nonsplit -ns 4,8,16 -trials 50
//	sweep -exp exact
//	sweep -exp gossip -ns 8,16,32 -trials 20
//	sweep -exp static -ns 2,8,64
//	sweep -exp grid -scenario random-tree \
//	    -scenario '{"adversary":"k-leaves","params":{"k":[2,4]}}' -ns 16,32 -trials 10
//
// Randomized experiments run as campaign specs on the campaign worker
// pool; -workers tunes the pool (0 = GOMAXPROCS, 1 = serial) without
// changing a single output digit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var scenarios campaign.ScenarioFlag
	fs.Var(&scenarios, "scenario", "scenario for -exp grid: a family name or a JSON object (repeatable)")
	var (
		exp     = fs.String("exp", "figure1", "experiment: figure1, theorem31, static, restricted, nonsplit, exact, gossip, grid")
		nsFlag  = fs.String("ns", "2,4,8,16,32", "comma-separated n values")
		ksFlag  = fs.String("ks", "2,3,4", "comma-separated k values (restricted)")
		trials  = fs.Int("trials", 10, "trials per configuration (randomized experiments)")
		seed    = fs.Uint64("seed", 1, "random seed")
		maxN    = fs.Int("max-n", 5, "largest n for the exact experiment")
		asCSV   = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		wrkrs   = fs.Int("workers", 0, "campaign worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		outPath = fs.String("out", "", "write output to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return fmt.Errorf("-ns: %w", err)
	}
	ks, err := parseInts(*ksFlag)
	if err != nil {
		return fmt.Errorf("-ks: %w", err)
	}

	opts := []experiment.Option{experiment.WithWorkers(*wrkrs)}
	var table *experiment.Table
	switch *exp {
	case "figure1":
		table, err = experiment.Figure1(ns, *seed, opts...)
	case "theorem31":
		table, err = experiment.Theorem31(ns, *seed, opts...)
	case "static":
		table, err = experiment.StaticPath(ns)
	case "restricted":
		table, err = experiment.Restricted(ns, ks, *trials, *seed, opts...)
	case "nonsplit":
		table, err = experiment.Nonsplit(ns, *trials, *seed, opts...)
	case "exact":
		table, err = experiment.Exact(*maxN, *seed, opts...)
	case "gossip":
		table, err = experiment.GossipVsBroadcast(ns, *trials, *seed, opts...)
	case "grid":
		table, err = gridTable(scenarios, ns, *trials, *seed, *wrkrs)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("creating -out: %w", err)
		}
		defer f.Close()
		w = f
	}
	if *asCSV {
		return table.WriteCSV(w)
	}
	return table.WriteText(w)
}

// gridTable runs an ad-hoc scenario grid through the campaign runner and
// renders its aggregates — the scenario-form sibling of cmd/campaign for
// quick sweeps over any registered family.
func gridTable(scenarios []campaign.Scenario, ns []int, trials int, seed uint64, workers int) (*experiment.Table, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("-exp grid needs at least one -scenario")
	}
	spec := campaign.Spec{
		Version:   campaign.SpecVersion,
		Name:      "grid",
		Scenarios: scenarios,
		Ns:        ns,
		Trials:    trials,
		Seed:      seed,
	}
	outcome, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	if outcome.Failed > 0 {
		return nil, fmt.Errorf("%d/%d jobs failed (first: %s)", outcome.Failed, outcome.Jobs, outcome.Errors[0])
	}
	return experiment.CampaignTable(outcome), nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
