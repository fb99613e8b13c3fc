package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/rng"
)

// workload is one fixed campaign shape. The seed picks only the spec's
// random seed, so every run of a workload does the same amount of work on
// different trees.
type workload struct {
	name      string
	scenarios []campaign.Scenario
	ns        []int
	trials    int
	// shardTrials > 0 sends the cold run through a loopback cluster
	// coordinator that leases shards of this many trials.
	shardTrials int
}

func scenarios(names ...string) []campaign.Scenario {
	out := make([]campaign.Scenario, len(names))
	for i, name := range names {
		out[i] = campaign.Scenario{Adversary: name}
	}
	return out
}

// workloads are listed in BENCHMARK.json with the reason each was chosen.
var workloads = []workload{
	{name: "small-cells", scenarios: scenarios("random-tree"), ns: []int{8, 16, 32, 64}, trials: 25000},
	{name: "large-n", scenarios: scenarios("random-tree", "random-path"), ns: []int{1024}, trials: 1000},
	{name: "heuristic-mix", scenarios: []campaign.Scenario{
		{Adversary: "ascending-path"},
		{Adversary: "block-leader"},
		{Adversary: "k-leaves", Params: map[string]any{"k": 4}},
		{Adversary: "stale-ascending"},
	}, ns: []int{256}, trials: 48},
	{name: "cluster-shards", scenarios: scenarios("random-tree"), ns: []int{16, 32, 64, 128}, trials: 10000, shardTrials: 1000},
}

// families are the adversary families the workloads use, in the order
// their per-family metrics are reported.
var families = []string{"random-tree", "random-path", "ascending-path", "block-leader", "k-leaves", "stale-ascending"}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// specJSON generates the workload's spec for seed, as the JSON document a
// user would hand to cmd/campaign or campaignd.
func (w workload) specJSON(seed int64) ([]byte, error) {
	spec := campaign.Spec{
		Version:   campaign.SpecVersion,
		Name:      "perfbench-" + w.name,
		Scenarios: w.scenarios,
		Ns:        w.ns,
		Trials:    w.trials,
		Seed:      rng.New(uint64(seed)).Uint64(),
		Goal:      "broadcast",
	}
	return json.Marshal(spec)
}

// loadSpec parses and validates a generated spec through the same entry
// point the binaries use.
func loadSpec(data []byte) (campaign.Spec, error) {
	spec, err := campaign.LoadSpec(bytes.NewReader(data))
	if err != nil {
		return campaign.Spec{}, err
	}
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, err
	}
	return spec, nil
}

// cellInfo is what the benchmark knows about one grid cell: how to build
// its adversary and at which n it runs.
type cellInfo struct {
	family campaign.Family
	params campaign.Params
	n      int
}

// cellPlan maps every feasible cell name of spec to its family, ground
// parameters and n, exactly as campaign.RunSpec names the cells.
func cellPlan(spec campaign.Spec) (map[string]cellInfo, error) {
	byName := make(map[string]campaign.Family)
	for _, f := range campaign.Families() {
		byName[f.Name] = f
	}
	cells := make(map[string]cellInfo)
	for _, sc := range spec.Scenarios {
		grounds, err := campaign.GroundScenarios(sc)
		if err != nil {
			return nil, err
		}
		for _, g := range grounds {
			fam, ok := byName[g.Adversary]
			if !ok {
				return nil, fmt.Errorf("unknown family %q", g.Adversary)
			}
			params := campaign.Params(g.Params)
			for _, n := range spec.Ns {
				if fam.Feasible != nil && !fam.Feasible(n, params) {
					continue
				}
				name, err := campaign.CellName(g, n)
				if err != nil {
					return nil, err
				}
				cells[name] = cellInfo{family: fam, params: params, n: n}
			}
		}
	}
	return cells, nil
}
