package dyntreecast_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyntreecast"
	"dyntreecast/internal/server"
)

func TestQuickstartFlow(t *testing.T) {
	rounds, err := dyntreecast.BroadcastTime(16,
		dyntreecast.RandomAdversary(dyntreecast.NewRand(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyntreecast.CheckSandwich(16, rounds); err != nil {
		t.Error(err)
	}
}

func TestStaticPathViaPublicAPI(t *testing.T) {
	for _, n := range []int{2, 9, 40} {
		rounds, err := dyntreecast.BroadcastTime(n,
			dyntreecast.StaticAdversary(dyntreecast.IdentityPathTree(n)))
		if err != nil {
			t.Fatal(err)
		}
		if rounds != n-1 {
			t.Errorf("n=%d: t* = %d, want %d", n, rounds, n-1)
		}
	}
}

func TestStarCompletesInOneRound(t *testing.T) {
	star, err := dyntreecast.StarTree(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := dyntreecast.BroadcastTime(9, dyntreecast.StaticAdversary(star))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("star t* = %d, want 1", rounds)
	}
}

func TestTreeConstructorsValidate(t *testing.T) {
	if _, err := dyntreecast.NewTree([]int{1, 0}); !errors.Is(err, dyntreecast.ErrInvalidTree) {
		t.Errorf("rootless tree: err = %v", err)
	}
	if _, err := dyntreecast.PathTree([]int{0, 0}); !errors.Is(err, dyntreecast.ErrInvalidTree) {
		t.Errorf("non-permutation path: err = %v", err)
	}
	if _, err := dyntreecast.StarTree(3, 9); !errors.Is(err, dyntreecast.ErrInvalidTree) {
		t.Errorf("bad star root: err = %v", err)
	}
}

func TestScheduleAdversary(t *testing.T) {
	n := 5
	sched := []*dyntreecast.Tree{
		dyntreecast.IdentityPathTree(n),
		dyntreecast.IdentityPathTree(n),
	}
	rounds, err := dyntreecast.BroadcastTime(n, dyntreecast.ScheduleAdversary(sched))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != n-1 {
		t.Errorf("t* = %d, want %d", rounds, n-1)
	}
}

func TestRunGoalAndOptions(t *testing.T) {
	res, err := dyntreecast.Run(4,
		dyntreecast.StaticAdversary(dyntreecast.IdentityPathTree(4)),
		dyntreecast.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 3 {
		t.Errorf("Result = %+v", res)
	}

	var observed int
	_, err = dyntreecast.Run(4,
		dyntreecast.StaticAdversary(dyntreecast.IdentityPathTree(4)),
		dyntreecast.Broadcast,
		dyntreecast.WithObserver(func(round int, tr *dyntreecast.Tree, e *dyntreecast.Engine) {
			observed++
		}))
	if err != nil {
		t.Fatal(err)
	}
	if observed != 3 {
		t.Errorf("observer fired %d times, want 3", observed)
	}

	_, err = dyntreecast.Run(4,
		dyntreecast.StaticAdversary(dyntreecast.IdentityPathTree(4)),
		dyntreecast.Gossip,
		dyntreecast.WithMaxRounds(10))
	if !errors.Is(err, dyntreecast.ErrMaxRounds) {
		t.Errorf("gossip under static path: err = %v, want ErrMaxRounds", err)
	}
}

func TestRestrictedAdversaries(t *testing.T) {
	r := dyntreecast.NewRand(3)
	rounds, err := dyntreecast.BroadcastTime(12, dyntreecast.KLeavesAdversary(3, r))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyntreecast.CheckSandwich(12, rounds); err != nil {
		t.Error(err)
	}
	rounds, err = dyntreecast.BroadcastTime(12, dyntreecast.KInnerAdversary(4, r))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyntreecast.CheckSandwich(12, rounds); err != nil {
		t.Error(err)
	}
}

func TestHeuristicAdversaries(t *testing.T) {
	for _, tc := range []struct {
		name string
		adv  dyntreecast.Adversary
	}{
		{"ascending", dyntreecast.AscendingPathAdversary()},
		{"block-leader", dyntreecast.BlockLeaderAdversary()},
		{"min-gain", dyntreecast.MinGainAdversary()},
	} {
		rounds, err := dyntreecast.BroadcastTime(10, tc.adv)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := dyntreecast.CheckSandwich(10, rounds); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestSearchScheduleCertifiesItsValue(t *testing.T) {
	adv, rounds := dyntreecast.SearchSchedule(6, 8, 1)
	got, err := dyntreecast.BroadcastTime(6, adv)
	if err != nil {
		t.Fatal(err)
	}
	if got != rounds {
		t.Errorf("schedule replays to %d rounds, search claimed %d", got, rounds)
	}
}

func TestExactSolverPublicAPI(t *testing.T) {
	s, err := dyntreecast.NewExactSolver(4)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Value(); v != 4 {
		t.Errorf("t*(T4) = %d, want 4", v)
	}
	rounds, err := dyntreecast.BroadcastTime(4, dyntreecast.OptimalAdversary(s))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 4 {
		t.Errorf("optimal adversary achieved %d, want 4", rounds)
	}
	if _, err := dyntreecast.NewExactSolver(7); err == nil {
		t.Error("NewExactSolver(7) accepted")
	}
}

func TestBoundFunctions(t *testing.T) {
	if got := dyntreecast.LowerBound(10); got != 13 {
		t.Errorf("LowerBound(10) = %d", got)
	}
	if got := dyntreecast.UpperBound(10); got != 24 {
		t.Errorf("UpperBound(10) = %d", got)
	}
	if got := dyntreecast.TrivialBound(10); got != 100 {
		t.Errorf("TrivialBound(10) = %d", got)
	}
	if dyntreecast.NLogNBound(16) != 64 || dyntreecast.NLogLogNBound(16) != 64 {
		t.Error("log bound curves wrong at n=16")
	}
	if err := dyntreecast.CheckSandwich(10, 25); err == nil {
		t.Error("CheckSandwich accepted a bound violation")
	}
}

func TestManualEngineStepping(t *testing.T) {
	e := dyntreecast.NewEngine(4)
	e.Step(dyntreecast.IdentityPathTree(4))
	if e.Round() != 1 {
		t.Errorf("Round = %d", e.Round())
	}
	if e.BroadcastDone() {
		t.Error("broadcast done after one path round on n=4")
	}
	star, _ := dyntreecast.StarTree(4, 0)
	e.Step(star)
	if !e.BroadcastDone() {
		t.Error("broadcast not done after star round")
	}
}

func TestFloodMinPublicAPI(t *testing.T) {
	res, err := dyntreecast.FloodMin([]int{9, 2, 5},
		dyntreecast.RandomAdversary(dyntreecast.NewRand(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Decision != 2 {
		t.Errorf("FloodMin result: %+v", res)
	}
	_, err = dyntreecast.FloodMin([]int{9, 2, 5}, dyntreecast.StallerAdversary(),
		dyntreecast.WithMaxRounds(50))
	if !errors.Is(err, dyntreecast.ErrMaxRounds) {
		t.Errorf("staller FloodMin err = %v, want ErrMaxRounds", err)
	}
}

func TestNonsplitGamePublicAPI(t *testing.T) {
	r := dyntreecast.NewRand(6)
	rounds, err := dyntreecast.NonsplitBroadcastTime(32, dyntreecast.RandomCoverAdversary(r), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The nonsplit game completes in far fewer than linear rounds.
	if rounds < 1 || rounds > 10 {
		t.Errorf("nonsplit t* = %d, expected a handful of rounds", rounds)
	}
	lazy, err := dyntreecast.NonsplitBroadcastTime(32, dyntreecast.LazyCoverAdversary(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lazy < rounds {
		t.Errorf("lazy cover (%d) below random cover (%d)", lazy, rounds)
	}
}

func TestGossipPublicAPI(t *testing.T) {
	b, g, err := dyntreecast.BroadcastAndGossipTimes(8,
		dyntreecast.RandomAdversary(dyntreecast.NewRand(8)))
	if err != nil {
		t.Fatal(err)
	}
	if b < 1 || g < b {
		t.Errorf("broadcast %d, gossip %d", b, g)
	}
	if _, err := dyntreecast.GossipTime(4, dyntreecast.StallerAdversary(),
		dyntreecast.WithMaxRounds(20)); !errors.Is(err, dyntreecast.ErrMaxRounds) {
		t.Errorf("staller gossip err = %v", err)
	}
}

func TestNonsplitProductPublicAPI(t *testing.T) {
	r := dyntreecast.NewRand(9)
	n := 7
	trees := make([]*dyntreecast.Tree, n-1)
	for i := range trees {
		trees[i] = dyntreecast.RandomTree(n, r)
	}
	if !dyntreecast.ProductOfTreesIsNonsplit(trees) {
		t.Error("product of n-1 trees not nonsplit")
	}
	if rad := dyntreecast.ProductOfTreesRadius(trees); rad < 0 {
		t.Errorf("radius = %d", rad)
	}
	if dyntreecast.ProductOfTreesIsNonsplit(trees[:1]) {
		t.Error("a single random tree on 7 vertices should rarely be nonsplit (seed-pinned)")
	}
}

func TestDeepSearchSchedulePublicAPI(t *testing.T) {
	adv, rounds, err := dyntreecast.DeepSearchSchedule(4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 4 {
		t.Errorf("certified %d rounds at n=4, want the exact value 4", rounds)
	}
	got, err := dyntreecast.BroadcastTime(4, adv)
	if err != nil {
		t.Fatal(err)
	}
	if got != rounds {
		t.Errorf("replay %d != certified %d", got, rounds)
	}
	if _, _, err := dyntreecast.DeepSearchSchedule(20, 100, 4); err == nil {
		t.Error("n=20 accepted")
	}
}

func TestRunCampaignCacheOption(t *testing.T) {
	spec := dyntreecast.Campaign{
		Scenarios: []dyntreecast.Scenario{{Adversary: "random-tree"}, {Adversary: "random-path"}},
		Ns:        []int{8, 16},
		Trials:    4,
		Seed:      6,
	}
	store := dyntreecast.NewMemoryCampaignCache()
	cold, err := dyntreecast.RunCampaign(context.Background(), spec, 2,
		dyntreecast.CampaignWithCache(store))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := dyntreecast.RunCampaign(context.Background(), spec, 2,
		dyntreecast.CampaignWithCache(store))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Jobs || warm.Executed != 0 {
		t.Errorf("warm run hits/executed = %d/%d, want %d/0", warm.CacheHits, warm.Executed, warm.Jobs)
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Error("cached campaign served different aggregates")
	}
}

// stridingStar is the custom adversary of the acceptance test below: the
// star rooted at (round·stride) mod n. Implemented entirely against the
// public facade, as downstream code would.
type stridingStar struct{ stride int }

// Reset implements dyntreecast.ReusableAdversary (source-free).
func (stridingStar) Reset(*dyntreecast.Rand) {}

func (s stridingStar) Next(v dyntreecast.View) *dyntreecast.Tree {
	star, err := dyntreecast.StarTree(v.N(), (v.Round()*s.stride)%v.N())
	if err != nil {
		return nil
	}
	return star
}

// TestRegisterAdversaryFullStack is the scenario-API acceptance pass: a
// custom parameterized family registered through the public
// RegisterAdversary runs through a full campaign with the cell cache
// (cold, then rerun from it), and round-trips through the campaignd HTTP service — where
// two spellings of a built-in grid serve byte-identical artifacts.
func TestRegisterAdversaryFullStack(t *testing.T) {
	// A custom oblivious family: round-robin stars whose root advances by
	// the "stride" parameter each round. Broadcast completes in 1 round
	// (any star completes immediately), keeping the expected stats pinned.
	err := dyntreecast.RegisterAdversary(dyntreecast.AdversaryFamily{
		Name: "acceptance-striding-star",
		Doc:  "star whose root advances by stride each round",
		Params: []dyntreecast.AdversaryParam{
			{Name: "stride", Kind: dyntreecast.IntParam, Default: 1, Doc: "root advance per round"},
		},
		NewReusable: func(_ int, p dyntreecast.AdversaryParams) (dyntreecast.ReusableAdversary, error) {
			stride := p.Int("stride")
			if stride < 1 {
				return nil, fmt.Errorf("stride must be >= 1, got %d", stride)
			}
			return stridingStar{stride: stride}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	spec := dyntreecast.Campaign{
		Name: "acceptance",
		Scenarios: []dyntreecast.Scenario{
			{Adversary: "acceptance-striding-star", Params: map[string]any{"stride": []any{1, 2}}},
		},
		Ns:     []int{6, 8},
		Trials: 3,
		Seed:   5,
	}
	ctx := context.Background()
	dir := t.TempDir()
	cacheStore, err := dyntreecast.NewDirCampaignCache(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}

	first, err := dyntreecast.RunCampaign(ctx, spec, 2, dyntreecast.CampaignWithCache(cacheStore))
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed != 0 || first.Jobs != 2*2*3 {
		t.Fatalf("custom campaign wrong: %+v errors=%v", first, first.Errors)
	}
	for _, cell := range first.Cells {
		if cell.Mean != 1 {
			t.Errorf("star cell %s mean = %v, want 1", cell.Cell, cell.Mean)
		}
	}

	// Rerun over the same cache: every job served from it, same cells.
	resumed, err := dyntreecast.RunCampaign(ctx, spec, 1, dyntreecast.CampaignWithCache(cacheStore))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits != resumed.Jobs || resumed.Executed != 0 {
		t.Errorf("rerun hits/executed = %d/%d, want %d/0", resumed.CacheHits, resumed.Executed, resumed.Jobs)
	}
	if !reflect.DeepEqual(first.Cells, resumed.Cells) {
		t.Errorf("resumed cells differ:\n%+v\nvs\n%+v", first.Cells, resumed.Cells)
	}

	// campaignd round-trip: the same custom scenario through HTTP, served
	// from the shared cache, must report the same aggregates.
	ts := httptest.NewServer(server.New(server.Options{Workers: 2}))
	defer ts.Close()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	served := submitAndWait(t, ts, string(specJSON))
	if !reflect.DeepEqual(served.Cells, first.Cells) {
		t.Errorf("campaignd aggregates differ from local run:\n%+v\nvs\n%+v", served.Cells, first.Cells)
	}

	// Axis and expanded spellings of one built-in grid: byte-identical
	// artifacts (modulo the submission-counter id).
	axis := `{"scenarios":[{"adversary":"k-inner","params":{"k":[2]}}],"ns":[8],"trials":3,"seed":9}`
	ground := `{"version":2,"scenarios":[{"adversary":"k-inner","params":{"k":2}}],"ns":[8],"trials":3,"seed":9}`
	a := submitAndWait(t, ts, axis)
	b := submitAndWait(t, ts, ground)
	a.ID, b.ID = "", ""
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("equivalent spellings serve different campaignd artifacts:\n%s\nvs\n%s", aj, bj)
	}
}

// serverStatus mirrors campaignd's GET /campaigns/{id} document.
type serverStatus struct {
	ID        string                     `json:"id"`
	Status    string                     `json:"status"`
	Jobs      int                        `json:"jobs"`
	Completed int                        `json:"completed"`
	Failed    int                        `json:"failed"`
	Error     string                     `json:"error,omitempty"`
	Cells     []dyntreecast.CampaignCell `json:"cells,omitempty"`
}

func submitAndWait(t *testing.T, ts *httptest.Server, body string) serverStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := http.Get(ts.URL + "/campaigns/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v serverStatus
		err = json.NewDecoder(st.Body).Decode(&v)
		st.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != "running" {
			if v.Status != "done" {
				t.Fatalf("campaign %s finished %q: %s", sub.ID, v.Status, v.Error)
			}
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", sub.ID)
	return serverStatus{}
}

// TestCampaignWithCluster drives the distributed fabric through the root
// facade: a coordinator served over HTTP, one in-process worker joined
// with RunClusterWorker, and an outcome identical to a local run.
func TestCampaignWithCluster(t *testing.T) {
	clusterFacadeRoundTrip(t, dyntreecast.NewClusterCoordinator())
}

// TestCampaignWithShardedCluster is the same round trip with cells split
// into 3-trial lease shards (4 trials per cell, so shards are uneven);
// the artifact must not move by a byte.
func TestCampaignWithShardedCluster(t *testing.T) {
	clusterFacadeRoundTrip(t, dyntreecast.NewShardedClusterCoordinator(3))
}

func clusterFacadeRoundTrip(t *testing.T, coord *dyntreecast.ClusterCoordinator) {
	t.Helper()
	spec := dyntreecast.Campaign{
		Scenarios: []dyntreecast.Scenario{{Adversary: "random-tree"}, {Adversary: "static-path"}},
		Ns:        []int{8, 12},
		Trials:    4,
		Seed:      11,
	}
	want, err := dyntreecast.RunCampaign(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- dyntreecast.RunClusterWorker(ctx, ts.URL) }()
	defer func() {
		cancel()
		if err := <-workerDone; err != nil {
			t.Errorf("RunClusterWorker: %v", err)
		}
	}()

	got, err := dyntreecast.RunCampaign(context.Background(), spec, 2,
		dyntreecast.CampaignWithCluster(coord))
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, gotJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if wantJSON.String() != gotJSON.String() {
		t.Errorf("clustered campaign artifact differs from local run:\n%s\nvs\n%s", gotJSON.String(), wantJSON.String())
	}
}
