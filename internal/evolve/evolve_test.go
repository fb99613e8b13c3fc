package evolve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/tree"
)

func baseOptions() Options {
	return Options{
		Families:    []string{"beam-search", "deepest-line", "stale-ascending"},
		Ns:          []int{5, 6},
		Trials:      2,
		Population:  4,
		Generations: 3,
		Elite:       2,
		Seed:        1,
	}
}

func TestRunValidation(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.Families = nil },
		func(o *Options) { o.Families = []string{"no-such-family"} },
		func(o *Options) { o.Ns = nil },
		func(o *Options) { o.Trials = 0 },
		func(o *Options) { o.Population = 0 },
		func(o *Options) { o.Generations = 0 },
		func(o *Options) { o.Elite = 0 },
		func(o *Options) { o.Elite = 99 },
		// deepest-line cannot run anywhere past the solver's packing limit.
		func(o *Options) { o.Families = []string{"deepest-line"}; o.Ns = []int{9} },
	}
	for i, breakIt := range cases {
		opts := baseOptions()
		breakIt(&opts)
		if _, err := Run(context.Background(), opts); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

// TestRunDeterministicAndCacheable: equal options give byte-identical
// reports, cold or against a cache warmed by a previous run — the
// meta-campaign inherits the campaign layer's byte-identity contract.
func TestRunDeterministicAndCacheable(t *testing.T) {
	opts := baseOptions()
	c := cache.NewMemory()
	opts.Cache = c
	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, _ := json.MarshalIndent(cold, "", " ")
	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, _ := json.MarshalIndent(warm, "", " ")
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm rerun differs from cold run:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
	if c.Len() == 0 {
		t.Error("no cells were cached")
	}
}

// TestWitnessBeatsBaselineWithinExact: a 3-generation run at n = 6 must
// find a lower-bound witness at least as good as the deepest-line
// family's default configuration measured alone (generation 0 contains
// that candidate and elitism never loses it) — and no witness can exceed
// t*(T6) = 7, the exact game value, because every measurement is an
// achieved schedule.
func TestWitnessBeatsBaselineWithinExact(t *testing.T) {
	const exactT6 = 7
	baseSpec := campaign.Spec{
		Scenarios: []Scenario{{Adversary: "deepest-line"}},
		Ns:        []int{6}, Trials: 2, Seed: 1,
	}
	baseOut, err := campaign.RunSpec(context.Background(), baseSpec, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(baseOut.Cells) != 1 {
		t.Fatalf("baseline cells = %d, want 1", len(baseOut.Cells))
	}
	baseline := int(baseOut.Cells[0].Max)

	opts := baseOptions()
	opts.Ns = []int{6}
	report, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Best) != 1 || report.Best[0].N != 6 {
		t.Fatalf("best witnesses = %+v, want exactly one at n=6", report.Best)
	}
	w := report.Best[0]
	if w.Rounds < baseline {
		t.Errorf("witness %d rounds, below the deepest-line baseline %d", w.Rounds, baseline)
	}
	if w.Rounds > exactT6 {
		t.Errorf("witness %d rounds exceeds the exact optimum %d", w.Rounds, exactT6)
	}
	if w.ZSSLower != bounds.Lower(6) || w.PaperUpper != bounds.UpperLinear(6) {
		t.Errorf("witness bound annotations = (%d, %d), want (%d, %d)",
			w.ZSSLower, w.PaperUpper, bounds.Lower(6), bounds.UpperLinear(6))
	}
	if report.Winner.Adversary == "" {
		t.Error("no winner reported")
	}
}

// TestReportShape: every generation's candidates are valid ground
// scenarios, ranked by nonincreasing fitness, and the per-n best witness
// is monotone across generations (elitism).
func TestReportShape(t *testing.T) {
	report, err := Run(context.Background(), baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 3 {
		t.Fatalf("generations recorded = %d, want 3", len(report.Results))
	}
	prevBest := map[int]int{}
	for _, g := range report.Results {
		for i, c := range g.Candidates {
			if _, err := campaign.CellName(c.Scenario, 6); err != nil {
				t.Errorf("gen %d candidate %s is not a valid ground scenario: %v", g.Index, c.Scenario, err)
			}
			if i > 0 && c.Fitness > g.Candidates[i-1].Fitness {
				t.Errorf("gen %d: candidates not ranked: %v after %v", g.Index, c.Fitness, g.Candidates[i-1].Fitness)
			}
			if c.Fitness < 0 || c.Fitness > 1+1.5 { // 1+√2 ≈ 2.414 is the theoretical ceiling
				t.Errorf("gen %d: fitness %v outside the plausible range", g.Index, c.Fitness)
			}
		}
		for _, w := range g.Best {
			if w.Rounds < prevBest[w.N] {
				t.Errorf("gen %d: best witness at n=%d regressed from %d to %d", g.Index, w.N, prevBest[w.N], w.Rounds)
			}
			prevBest[w.N] = w.Rounds
		}
	}
}

// Scenario aliases campaign.Scenario for test brevity.
type Scenario = campaign.Scenario

// registerKnobs registers (once) a fast custom family with a float, a
// bool, and a required int param — the kinds no built-in family carries —
// so the mutation operator's float/bool arms and the required-numeric
// seeding rule are reachable.
func registerKnobs(t *testing.T) {
	t.Helper()
	if _, ok := familyRegistered("t-evolve-knobs"); ok {
		return
	}
	err := campaign.Register(campaign.Family{
		Name: "t-evolve-knobs",
		Params: []campaign.Param{
			{Name: "rate", Kind: campaign.FloatParam, Default: 1.0, Doc: "float knob"},
			{Name: "flip", Kind: campaign.BoolParam, Default: false, Doc: "bool knob"},
			{Name: "k", Kind: campaign.IntParam, Doc: "required int knob"},
		},
		NewReusable: func(n int, p campaign.Params) (campaign.ReusableAdversary, error) {
			return adversary.Static{Tree: mustStar(n)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func familyRegistered(name string) (campaign.Family, bool) {
	for _, f := range campaign.Families() {
		if f.Name == name {
			return f, true
		}
	}
	return campaign.Family{}, false
}

// TestRunCustomFamilyMutationsAndLog: a family with float/bool/required
// params seeds (required numerics default to 2), mutates across all
// three kinds, and the progress log reports every generation.
func TestRunCustomFamilyMutationsAndLog(t *testing.T) {
	registerKnobs(t)
	var log bytes.Buffer
	opts := Options{
		Families: []string{"t-evolve-knobs"}, Ns: []int{4, 5}, Trials: 2,
		Population: 5, Generations: 2, Elite: 1, Seed: 3, Log: &log,
	}
	report, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	seed := report.Results[0].Candidates
	var found bool
	for _, c := range seed {
		if k, ok := c.Scenario.Params["k"].(float64); ok && k == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no candidate carries the required-param seed k=2: %v", seed)
	}
	if !bytes.Contains(log.Bytes(), []byte("gen 1/2")) || !bytes.Contains(log.Bytes(), []byte("gen 2/2")) {
		t.Errorf("progress log missing generation lines:\n%s", log.String())
	}
}

// TestRunRequiredStringParamUnseedable: a family whose required param has
// no numeric seed cannot enter generation 0 — a clear error, not a panic.
func TestRunRequiredStringParamUnseedable(t *testing.T) {
	err := campaign.Register(campaign.Family{
		Name:   "t-evolve-reqstr",
		Params: []campaign.Param{{Name: "mode", Kind: campaign.StringParam, Doc: "required string"}},
		NewReusable: func(n int, p campaign.Params) (campaign.ReusableAdversary, error) {
			return adversary.Static{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOptions()
	opts.Families = []string{"t-evolve-reqstr"}
	if _, err := Run(context.Background(), opts); err == nil {
		t.Error("unseedable family accepted")
	}
}

// TestRunCancelledReturnsPartialReport: cancellation surfaces the error
// together with whatever generations completed (here none), so cmd/evolve
// can write a partial artifact.
func TestRunCancelledReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := Run(ctx, baseOptions())
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if report == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if len(report.Best) != 0 && report.Winner.Adversary != "" {
		t.Errorf("cancelled-before-start run claims a winner: %+v", report)
	}
}

func mustStar(n int) *tree.Tree {
	s, err := tree.Star(n, 0)
	if err != nil {
		panic(err)
	}
	return s
}
