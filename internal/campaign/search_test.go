package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/gamesolver"
)

// exactT6 is t*(T6) = 7: certified as a lower bound by the deep-line
// search (gamesolver's TestDeepestLineCertifiesLowerBoundN6) and pinned
// to the exact parallel solve by TestExactCrossValidation, so the n = 6
// leg here need not repeat the cold solve.
const exactT6 = 7

// TestSearchFamiliesAtOrBelowExact cross-validates the search-backed
// registry families against the exact game values: a campaign grid over
// beam-search and deepest-line at n ≤ 6 must measure round counts at or
// below t*(Tn) — the optimum over ALL schedules — and every cell must
// measure the SAME value on every trial, because the family replays one
// per-cell schedule rather than re-searching or re-randomizing per trial.
func TestSearchFamiliesAtOrBelowExact(t *testing.T) {
	maxN := 6
	if testing.Short() || raceEnabled {
		maxN = 5
	}
	for n := 2; n <= maxN; n++ {
		exact := exactT6
		if n <= gamesolver.MaxN {
			solver, err := gamesolver.New(n)
			if err != nil {
				t.Fatalf("gamesolver.New(%d): %v", n, err)
			}
			exact = solver.Value()
		}
		spec := Spec{
			Scenarios: []Scenario{
				{Adversary: "beam-search", Params: map[string]any{"seed": []any{1, 2}}},
				{Adversary: "deepest-line"},
			},
			Ns: []int{n}, Trials: 3, Seed: 1,
		}
		out, err := RunSpec(context.Background(), spec, Config{Workers: 2})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.Failed != 0 {
			t.Fatalf("n=%d: %d jobs failed: %v", n, out.Failed, out.Errors)
		}
		for _, c := range out.Cells {
			if int(c.Max) > exact {
				t.Errorf("n=%d: %s measured %v rounds, exceeds the exact optimum %d", n, c.Cell, c.Max, exact)
			}
			if c.Min != c.Max {
				t.Errorf("n=%d: %s measured [%v, %v] across trials; a replayed schedule must be constant", n, c.Cell, c.Min, c.Max)
			}
		}
	}
}

// TestSearchFamilyWarmRerunServesCachedCells: rerunning a search-family
// campaign against a warm cell cache must (a) emit a byte-identical
// artifact, (b) serve every job from the cache without executing any —
// which means the adversary is never even constructed — and (c) run zero
// new schedule searches.
func TestSearchFamilyWarmRerunServesCachedCells(t *testing.T) {
	spec := Spec{
		Scenarios: []Scenario{
			{Adversary: "beam-search", Params: map[string]any{"width": 2, "random_moves": 0, "random_trees": 0}},
			// Budget and n kept small: at n the game has n^(n-1) candidate
			// trees and every expansion scans them all, so n = 8 costs
			// minutes where n = 6 costs milliseconds.
			{Adversary: "deepest-line", Params: map[string]any{"budget": 500, "width": 2}},
		},
		Ns: []int{5, 6}, Trials: 3, Seed: 7,
	}
	c := cache.NewMemory()
	cold, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Failed != 0 {
		t.Fatalf("cold run failed jobs: %v", cold.Errors)
	}
	coldJSON, err := json.MarshalIndent(cold, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	searches := scheduleSearchCount()

	warm, err := RunSpec(context.Background(), spec, Config{Workers: 4, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.MarshalIndent(warm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm artifact differs from cold:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
	if warm.CacheHits != warm.Jobs || warm.Executed != 0 {
		t.Errorf("warm run executed %d jobs with %d/%d cache hits; want all %d served from cache",
			warm.Executed, warm.CacheHits, warm.Jobs, warm.Jobs)
	}
	if got := scheduleSearchCount(); got != searches {
		t.Errorf("warm rerun ran %d new schedule searches; want 0", got-searches)
	}
}

// TestBeamSearchFamilyAtN64: the beam-search family is usable far beyond
// the solvers' reach — a grid cell at n = 64 completes quickly (the
// search runs once per cell, trials replay it), measures a schedule at
// least as long as the static path, and respects the paper's upper bound.
func TestBeamSearchFamilyAtN64(t *testing.T) {
	spec := Spec{
		Scenarios: []Scenario{
			{Adversary: "beam-search", Params: map[string]any{"width": 2, "random_moves": 0, "random_trees": 0}},
		},
		Ns: []int{64}, Trials: 2, Seed: 11,
	}
	out, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || out.Completed != 2 {
		t.Fatalf("completed %d, failed %d: %v", out.Completed, out.Failed, out.Errors)
	}
	if len(out.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(out.Cells))
	}
	c := out.Cells[0]
	if c.Min != c.Max {
		t.Errorf("replayed schedule varied across trials: [%v, %v]", c.Min, c.Max)
	}
	rounds := int(c.Max)
	if rounds < bounds.StaticPath(64) {
		t.Errorf("beam schedule at n=64 survives %d rounds, below the static path's %d", rounds, bounds.StaticPath(64))
	}
	if err := bounds.CheckSandwich(64, rounds); err != nil {
		t.Error(err)
	}
}

// TestSearchFamilyValidation: the search families' parameter checks fire
// at scenario-expansion time (spec validation), and deepest-line's
// representation limit surfaces as grid infeasibility, not a job error.
func TestSearchFamilyValidation(t *testing.T) {
	bad := []Scenario{
		{Adversary: "beam-search", Params: map[string]any{"width": 0}},
		{Adversary: "beam-search", Params: map[string]any{"random_moves": -1}},
		{Adversary: "beam-search", Params: map[string]any{"random_trees": -3}},
		{Adversary: "beam-search", Params: map[string]any{"max_rounds": -1}},
		{Adversary: "beam-search", Params: map[string]any{"seed": -1}},
		{Adversary: "deepest-line", Params: map[string]any{"budget": 0}},
		{Adversary: "deepest-line", Params: map[string]any{"width": -1}},
		{Adversary: "stale-ascending", Params: map[string]any{"lag": -1}},
	}
	for _, sc := range bad {
		if _, err := expandScenario(sc); err == nil {
			t.Errorf("scenario %s accepted, want validation error", sc)
		}
	}
	// n = 9 exceeds the game solver's uint64 packing; the grid point is
	// skipped, so a spec with only that point compiles to the empty grid.
	spec := Spec{Scenarios: []Scenario{{Adversary: "deepest-line"}}, Ns: []int{9}, Trials: 1, Seed: 1}
	if _, err := spec.Compile(); err == nil {
		t.Error("deepest-line at n=9 compiled, want empty-grid error")
	}
	// Mixed grid: the infeasible n is dropped, the feasible one runs.
	spec.Ns = []int{4, 9}
	jobs, err := spec.Compile()
	if err != nil {
		t.Fatalf("mixed-feasibility grid: %v", err)
	}
	if len(jobs) != 1 {
		t.Errorf("mixed grid compiled to %d jobs, want 1 (the n=4 cell)", len(jobs))
	}
}

// TestSearchScheduleEdgeCases exercises the construction paths the spec
// validator normally fences off — direct callers (the root facade, a
// future meta-layer) bypass Check, so the constructors must error rather
// than search under a wrong label or panic.
func TestSearchScheduleEdgeCases(t *testing.T) {
	beam, ok := familyByName("beam-search")
	if !ok {
		t.Fatal("beam-search not registered")
	}
	deep, ok := familyByName("deepest-line")
	if !ok {
		t.Fatal("deepest-line not registered")
	}
	stale, ok := familyByName("stale-ascending")
	if !ok {
		t.Fatal("stale-ascending not registered")
	}

	badBeam := Params{"width": float64(0), "random_moves": float64(4),
		"random_trees": float64(4), "max_rounds": float64(0), "seed": float64(1)}
	if _, err := beam.NewReusable(4, badBeam); err == nil {
		t.Error("beam-search.NewReusable accepted width=0")
	}
	badDeep := Params{"budget": float64(-1), "width": float64(2)}
	if _, err := deep.NewReusable(4, badDeep); err == nil {
		t.Error("deepest-line.NewReusable accepted budget=-1")
	}
	if _, err := stale.NewReusable(4, Params{"lag": float64(-1)}); err == nil {
		t.Error("stale-ascending.NewReusable accepted lag=-1")
	}

	// n = 1: broadcast is already done, both searches find the empty
	// schedule, and the identity-path fallback keeps Replay a valid
	// adversary (Replay with no trees would return nil moves).
	for name, f := range map[string]Family{"beam-search": beam, "deepest-line": deep} {
		grounds, err := GroundScenarios(Scenario{Adversary: name})
		if err != nil {
			t.Fatalf("%s defaults: %v", name, err)
		}
		adv, err := f.NewReusable(1, Params(grounds[0].Params))
		if err != nil {
			t.Fatalf("%s at n=1: %v", name, err)
		}
		if adv == nil {
			t.Errorf("%s at n=1 returned a nil adversary", name)
		}
	}
}

// searchGolden is the SHA-256 of searchGoldenSpec()'s WriteJSON artifact.
// The search-backed families' cells are a function of the schedule their
// search finds, so this pins both searches' output end to end.
const searchGolden = "1b9020e7466a2c359f4d91c2d21581ac6a0cba115eb79756c7acf2263abdb47e"

func searchGoldenSpec() Spec {
	return Spec{
		Scenarios: []Scenario{
			{Adversary: "beam-search", Params: map[string]any{"seed": []any{1, 2}, "width": []any{2, 3}, "random_moves": 1, "random_trees": 1}},
			{Adversary: "deepest-line", Params: map[string]any{"budget": 500, "width": 2}},
		},
		Ns: []int{4, 6, 70}, Trials: 2, Seed: 5,
	}
}

func TestSearchFamilyArtifactGolden(t *testing.T) {
	out, err := RunSpec(context.Background(), searchGoldenSpec(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("%d jobs failed: %v", out.Failed, out.Errors)
	}
	sum := sha256.Sum256(artifactBytes(t, out))
	if got := hex.EncodeToString(sum[:]); got != searchGolden {
		t.Errorf("artifact digest %s, want %s", got, searchGolden)
	}
}
