package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
)

// batchSpec exercises every reuse-relevant axis in one grid: a random
// family, a restricted k family with an axis, a deterministic adaptive
// family, and a precomputed oblivious schedule.
func batchSpec() Spec {
	return Spec{
		Name: "batching",
		Scenarios: []Scenario{
			{Adversary: "random-tree"},
			{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
			{Adversary: "ascending-path"},
			{Adversary: "two-phase-path"},
		},
		Ns:     []int{6, 13},
		Trials: 5,
		Seed:   99,
	}
}

// batchGolden holds the SHA-256 of batchSpec()'s WriteJSON artifact per
// goal, as produced by the per-trial reference pipeline (a fresh engine
// and a fresh adversary per trial) before that pipeline was retired.
var batchGolden = map[string]string{
	"broadcast": "ed7ece55e9a6a59e552050836e78990e4ac96a5e5e99dc79bfa0b64487872aee",
	"gossip":    "d4ee9af710cfb83e961c96129bbd49b821f6670280929e4bcabe6fd3ce78eb2f",
}

// TestBatchedPipelineByteIdentity pins the pooled pipeline to the
// reference pipeline's exact artifact bytes, including the gossip goal,
// at worker counts that batch whole cells (1, 4) and that split cells
// across the pool (16 workers for 10 cells).
func TestBatchedPipelineByteIdentity(t *testing.T) {
	specs := map[string]Spec{"broadcast": batchSpec()}
	// Gossip variant: random families only — the deterministic path
	// schedules stall gossip forever (see package gossip).
	gossip := batchSpec()
	gossip.Scenarios = []Scenario{
		{Adversary: "random-tree"},
		{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
	}
	gossip.Goal = "gossip"
	specs["gossip"] = gossip

	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				o, err := RunSpec(context.Background(), spec, Config{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sum := sha256.Sum256(artifactBytes(t, o))
				if got := hex.EncodeToString(sum[:]); got != batchGolden[name] {
					t.Errorf("workers=%d: artifact digest %s, want %s", workers, got, batchGolden[name])
				}
			}
		})
	}
}

// TestBatchedKillAndResumeByteIdentity extends the kill-and-resume
// guarantee to the pooled pipeline: kill mid-run at one worker count,
// rerun over the same cell cache at another, and the artifact still
// matches an uninterrupted run's bytes.
func TestBatchedKillAndResumeByteIdentity(t *testing.T) {
	spec := batchSpec()
	unint, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := artifactBytes(t, unint)

	for _, workers := range []int{1, 3, 16} {
		for _, resumeWorkers := range []int{1, 16} {
			resumed := interruptAndResume(t, spec, workers, resumeWorkers)
			if got := artifactBytes(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("workers=%d resumeWorkers=%d: resumed artifact differs", workers, resumeWorkers)
			}
		}
	}
}

// TestSliceBatches pins the scheduling-unit construction under the
// derived cap ⌈pending/workers⌉: whole cells when cells cover the pool,
// an even split of one big cell otherwise, none for a cell with no
// pending trials (a cached one), singletons for one-trial cells.
func TestSliceBatches(t *testing.T) {
	cases := []struct {
		name    string
		sizes   []int
		workers int
		want    []batch
	}{
		{"one cell over 4 workers", []int{10}, 4, []batch{{0, 0, 3}, {0, 3, 6}, {0, 6, 9}, {0, 9, 10}}},
		{"4 cells on 1 worker", []int{25, 25, 25, 25}, 1, []batch{{0, 0, 25}, {1, 0, 25}, {2, 0, 25}, {3, 0, 25}}},
		{"4 cells on 4 workers", []int{25, 25, 25, 25}, 4, []batch{{0, 0, 25}, {1, 0, 25}, {2, 0, 25}, {3, 0, 25}}},
		{"cached cell skipped", []int{25, 0, 25}, 2, []batch{{0, 0, 25}, {2, 0, 25}}},
		{"interleaved", []int{1, 1, 1}, 1, []batch{{0, 0, 1}, {1, 0, 1}, {2, 0, 1}}},
		{"nothing pending", []int{0, 0}, 3, nil},
	}
	for _, tc := range cases {
		got := sliceBatches(tc.sizes, tc.workers)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: batch %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFamilyReusableMatchesNew runs every built-in family both ways —
// one adversary built per trial (NewReusable + Reset) versus one
// adversary reused across trials with Reset per trial — and requires
// identical rounds: the per-(worker, cell) reuse is invisible.
func TestFamilyReusableMatchesNew(t *testing.T) {
	for _, decl := range append(builtinFamilies(), searchFamilies()...) {
		f, _ := familyByName(decl.Name) // the registered copy has normalized defaults
		t.Run(f.Name, func(t *testing.T) {
			var params Params
			if len(f.Params) > 0 {
				params = Params{}
				for _, p := range f.Params {
					if p.Default != nil {
						params[p.Name] = p.Default
					} else {
						params[p.Name] = float64(2) // the k families
					}
				}
			}
			const n = 9
			if f.Feasible != nil && !f.Feasible(n, params) {
				t.Skipf("%s infeasible at n=%d with default params", f.Name, n)
			}
			runner := core.NewRunner()
			reused, err := f.NewReusable(n, params)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				seed := uint64(trial + 1)
				fresh, err := f.NewReusable(n, params)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Reset(rng.New(seed))
				want, errA := core.BroadcastTime(n, fresh)
				reused.Reset(rng.New(seed))
				got, errB := runner.Run(n, reused, core.Broadcast)
				if errA != nil || errB != nil || want != got {
					t.Fatalf("trial %d: fresh %d (%v), reused %d (%v)", trial, want, errA, got, errB)
				}
			}
		})
	}
}

// TestArenaAdversaryFor: the arena caches one adversary per cell,
// rebuilding only on cell changes and resetting on every trial.
func TestArenaAdversaryFor(t *testing.T) {
	a := NewArena()
	builds := 0
	build := func() (ReusableAdversary, error) {
		builds++
		return countingReusable{resets: new(int)}, nil
	}
	r1, err := a.AdversaryFor("cell-a", nil, build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdversaryFor("cell-a", nil, build); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("same cell rebuilt: %d builds", builds)
	}
	if got := *r1.(countingReusable).resets; got != 2 {
		t.Errorf("resets = %d, want 2", got)
	}
	if _, err := a.AdversaryFor("cell-b", nil, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("cell change did not rebuild: %d builds", builds)
	}
	failing := func() (ReusableAdversary, error) { return nil, fmt.Errorf("boom") }
	if _, err := a.AdversaryFor("cell-c", nil, failing); err == nil {
		t.Error("build error swallowed")
	}
}

type countingReusable struct {
	core.Adversary
	resets *int
}

func (c countingReusable) Reset(*rng.Source) { *c.resets++ }
