package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyntreecast/internal/rng"
)

// named returns one parameterless scenario per family name.
func named(families ...string) []Scenario {
	out := make([]Scenario, len(families))
	for i, f := range families {
		out[i] = Scenario{Adversary: f}
	}
	return out
}

func detSpec() Spec {
	return Spec{
		Name: "determinism",
		Scenarios: append(named("random-tree", "random-path"),
			Scenario{Adversary: "k-leaves", Params: map[string]any{"k": []int{2, 3}}}),
		Ns:     []int{8, 16},
		Trials: 8,
		Seed:   42,
	}
}

// TestRunSpecDeterministicAcrossWorkers is the package's hard invariant:
// the same spec+seed yields byte-identical aggregates for worker counts
// 1, 4, and GOMAXPROCS (and any other), because jobs own pre-split
// sources and aggregation observes results in job-index order.
func TestRunSpecDeterministicAcrossWorkers(t *testing.T) {
	spec := detSpec()
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var outcomes []*Outcome
	var artifacts [][]byte
	for _, w := range workerCounts {
		o, err := RunSpec(context.Background(), spec, Config{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if o.Failed != 0 || o.Completed != o.Jobs {
			t.Fatalf("workers=%d: %d/%d jobs ok, %d failed", w, o.Completed, o.Jobs, o.Failed)
		}
		var buf bytes.Buffer
		if err := o.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		outcomes = append(outcomes, o)
		artifacts = append(artifacts, buf.Bytes())
	}
	for i := 1; i < len(outcomes); i++ {
		if !reflect.DeepEqual(outcomes[0], outcomes[i]) {
			t.Errorf("outcome differs between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				workerCounts[0], workerCounts[i], outcomes[0], outcomes[i])
		}
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Errorf("JSON artifact differs between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
	}
}

// TestCompileSplitsDeterministic pins the seed-derivation contract: two
// compiles of the same spec hand every job an identical private stream.
func TestCompileSplitsDeterministic(t *testing.T) {
	spec := detSpec()
	a, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("job counts differ: %d vs %d", len(a), len(b))
	}
	// Grid: random-tree (2 ns) + random-path (2 ns) + k-leaves (2 ns × 2 ks),
	// each × 8 trials.
	if want := (2 + 2 + 4) * 8; len(a) != want {
		t.Fatalf("jobs = %d, want %d", len(a), want)
	}
	for i := range a {
		if a[i].Index != i {
			t.Fatalf("job %d has index %d", i, a[i].Index)
		}
		for draw := 0; draw < 3; draw++ {
			if x, y := a[i].Src.Uint64(), b[i].Src.Uint64(); x != y {
				t.Fatalf("job %d draw %d: %d != %d", i, draw, x, y)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	base := detSpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no scenarios", func(s *Spec) { s.Scenarios = nil }, "at least one scenario"},
		{"unsupported version", func(s *Spec) { s.Version = 3 }, "unsupported spec version"},
		{"retired version 1", func(s *Spec) { s.Version = 1 }, "use the scenario form"},
		{"unknown scenario adversary", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "omniscient"}}
		}, "unknown adversary"},
		{"unknown scenario param", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "random-tree", Params: map[string]any{"k": 2}}}
		}, `no param "k"`},
		{"missing required param", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "k-leaves"}}
		}, "missing required param"},
		{"wrong param kind", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": "two"}}}
		}, "want int"},
		{"fractional int param", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": 2.5}}}
		}, "want int"},
		{"scenario check named", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": 0}}}
		}, `scenario k-leaves{"k":0}`},
		{"no ns", func(s *Spec) { s.Ns = nil }, "at least one n"},
		{"bad n", func(s *Spec) { s.Ns = []int{0} }, "n must be"},
		{"bad k", func(s *Spec) {
			s.Scenarios = []Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": []int{2, 0}}}}
		}, "k must be"},
		{"bad trials", func(s *Spec) { s.Trials = 0 }, "trials must be"},
		{"grid trials overflow int", func(s *Spec) {
			s.Scenarios, s.Ns, s.Trials = named("random-tree"), []int{8, 9, 10, 11}, 1<<62
		}, "trials one campaign can index"},
		{"grid trials beyond the index bound", func(s *Spec) {
			s.Scenarios, s.Ns, s.Trials = named("random-tree"), []int{8, 9}, 1<<30
		}, "trials one campaign can index"},
		{"bad goal", func(s *Spec) { s.Goal = "multicast" }, "unknown goal"},
		{"bad max rounds", func(s *Spec) { s.MaxRounds = -1 }, "max_rounds"},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
	good := base
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// The largest grid the bound admits still plans, to the last index.
	edge := Spec{Scenarios: named("random-tree"), Ns: []int{8}, Trials: maxGridTrials, Seed: 1}
	if cells, err := edge.CellJobs(); err != nil || cells[0].Trials != maxGridTrials {
		t.Errorf("grid of %d trials: %v, %v", maxGridTrials, cells, err)
	}
}

func TestCompileEmptyGrid(t *testing.T) {
	spec := Spec{Scenarios: []Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": 5}}},
		Ns: []int{2}, Trials: 3, Seed: 1}
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "empty grid") {
		t.Errorf("err = %v, want empty-grid error", err)
	}
}

func constJob(i int, cell string, v float64) Job {
	return Job{Index: i, Run: func(context.Context, *rng.Source, *Arena) ([]Measurement, error) {
		return []Measurement{{Cell: cell, Value: v}}, nil
	}}
}

func TestAggregateStats(t *testing.T) {
	results := []JobResult{
		{Index: 0, Measurements: []Measurement{{Cell: "a", Value: 1}}},
		{Index: 1, Measurements: []Measurement{{Cell: "a", Value: 3}}},
		{Index: 2, Measurements: []Measurement{{Cell: "a", Value: 2}, {Cell: "b", Value: 10}}},
		{Index: 3, Err: errors.New("boom"), Measurements: []Measurement{{Cell: "a", Value: 999}}},
		{Index: 4, Skipped: true},
	}
	cells := Aggregate(results)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	a := cells[0]
	if a.Cell != "a" || a.Count != 3 || a.Mean != 2 || a.Min != 1 || a.Max != 3 || a.P50 != 2 {
		t.Errorf("cell a stats wrong: %+v", a)
	}
	if a.P99 < 2.9 || a.P99 > 3 {
		t.Errorf("cell a p99 = %v, want near 3", a.P99)
	}
	b := cells[1]
	if b.Cell != "b" || b.Count != 1 || b.Mean != 10 {
		t.Errorf("cell b stats wrong: %+v", b)
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	jobs := make([]Job, 17)
	for i := range jobs {
		jobs[i] = constJob(i, "c", float64(i))
	}
	var calls []int
	var total int
	_, err := Run(context.Background(), jobs, Config{
		Workers: 4,
		Progress: func(done, tot int) {
			calls = append(calls, done) // serialized by contract; no lock needed
			total = tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(jobs) || len(calls) != len(jobs) {
		t.Fatalf("progress calls = %d (total %d), want %d", len(calls), total, len(jobs))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic: call %d reported done=%d", i, d)
		}
	}
}

// TestCancellation: a cancelled campaign returns promptly with the
// completed jobs' results intact, the rest marked, and no goroutines
// left behind.
func TestCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	const quick, blocking, workers = 5, 2, 2
	jobs := make([]Job, 20)
	started := make(chan struct{}, len(jobs))
	for i := range jobs {
		i := i
		jobs[i] = Job{Index: i, Run: func(ctx context.Context, _ *rng.Source, _ *Arena) ([]Measurement, error) {
			started <- struct{}{}
			if i < quick {
				return []Measurement{{Cell: "done", Value: float64(i)}}, nil
			}
			<-ctx.Done() // simulate a long job that honors cancellation
			return nil, ctx.Err()
		}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		results []JobResult
		err     error
	}
	outCh := make(chan runOut, 1)
	go func() {
		results, err := Run(ctx, jobs, Config{Workers: workers})
		outCh <- runOut{results, err}
	}()
	// Wait until the quick jobs finished and both workers sit in blocking
	// jobs, then cancel.
	for i := 0; i < quick+blocking; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("jobs did not start in time")
		}
	}
	cancel()
	var out runOut
	select {
	case out = <-outCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", out.err)
	}
	completed, failed, skipped := 0, 0, 0
	for _, r := range out.results {
		switch {
		case r.Skipped:
			skipped++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("skipped job %d err = %v", r.Index, r.Err)
			}
		case r.Err != nil:
			failed++
		default:
			completed++
		}
	}
	if completed != quick || failed != blocking || skipped != len(jobs)-quick-blocking {
		t.Errorf("completed/failed/skipped = %d/%d/%d, want %d/%d/%d",
			completed, failed, skipped, quick, blocking, len(jobs)-quick-blocking)
	}
	// All pool goroutines must be gone (allow the runtime some slack).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}
}

func TestRunSpecCollectsJobErrors(t *testing.T) {
	// A 2-round budget is far too small for gossip at n=32, so every job
	// fails; the campaign must finish anyway and account for the failures.
	spec := Spec{
		Scenarios: named("random-tree"),
		Ns:        []int{32},
		Trials:    6,
		Seed:      7,
		Goal:      "gossip",
		MaxRounds: 2,
	}
	o, err := RunSpec(context.Background(), spec, Config{Workers: 3})
	if err != nil {
		t.Fatalf("RunSpec should tolerate job failures, got %v", err)
	}
	if o.Failed != 6 || o.Completed != 0 || len(o.Errors) != 6 {
		t.Fatalf("failed/completed/errors = %d/%d/%d, want 6/0/6", o.Failed, o.Completed, len(o.Errors))
	}
	if len(o.Cells) != 0 {
		t.Errorf("failed jobs must not contribute cells: %+v", o.Cells)
	}
	if !strings.Contains(o.Errors[0], "random-tree/n=32") {
		t.Errorf("error not cell-tagged: %q", o.Errors[0])
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	spec := Spec{Scenarios: named("random-path"), Ns: []int{8}, Trials: 4, Seed: 3}
	o, err := RunSpec(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	// The job-accounting fields are deliberately not part of the artifact
	// (cold and warm runs must stay byte-identical), so zero them before
	// comparing.
	artifact := *o
	artifact.Executed, artifact.CacheHits = 0, 0
	if !reflect.DeepEqual(artifact, back) {
		t.Errorf("JSON round trip changed the outcome:\n%+v\nvs\n%+v", artifact, back)
	}
	buf.Reset()
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(o.Cells) {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), len(o.Cells))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["seed"] != float64(spec.Seed) {
			t.Errorf("JSONL line missing seed: %q", line)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	good := `{"name":"x","scenarios":[{"adversary":"random-tree"}],"ns":[8],"trials":2,"seed":9}`
	spec, err := LoadSpec(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "x" || spec.Seed != 9 || spec.Trials != 2 {
		t.Errorf("loaded spec wrong: %+v", spec)
	}
	if _, err := LoadSpec(strings.NewReader(`{"scenarios":[{"adversary":"random-tree"}],"workerz":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestRunEmptyJobs(t *testing.T) {
	results, err := Run(context.Background(), nil, Config{Workers: 8})
	if err != nil || len(results) != 0 {
		t.Errorf("empty run: results=%v err=%v", results, err)
	}
}

func TestGossipGoal(t *testing.T) {
	spec := Spec{Scenarios: named("random-tree"), Ns: []int{8}, Trials: 4, Seed: 5, Goal: "gossip"}
	o, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Fatalf("gossip campaign failed: %v", o.Errors)
	}
	cell, ok := CellByKey(o.Cells, "random-tree/n=8")
	if !ok || cell.Mean <= 0 {
		t.Errorf("gossip cell missing or empty: %+v ok=%v", cell, ok)
	}
}

// TestCellKey pins the aggregation key format of a ground scenario's
// cell: the family name, n, then every declared param in order.
func TestCellKey(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Adversary: "k-leaves", Params: map[string]any{"k": 2}}, "k-leaves/n=16/k=2"},
		{Scenario{Adversary: "random-tree"}, "random-tree/n=16"},
	} {
		if got, err := CellName(tc.sc, 16); err != nil || got != tc.want {
			t.Errorf("CellName(%s, 16) = %q, %v; want %q", tc.sc, got, err, tc.want)
		}
	}
}

func TestWorkersDefaultAndClamp(t *testing.T) {
	jobs := []Job{constJob(0, "c", 1)}
	// Workers far beyond the job count must not deadlock or leak.
	results, err := Run(context.Background(), jobs, Config{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Skipped || len(results[0].Measurements) != 1 {
		t.Errorf("job not run: %+v", results[0])
	}
}

func ExampleRunSpec() {
	spec := Spec{
		Name:      "quickstart",
		Scenarios: []Scenario{{Adversary: "static-path"}},
		Ns:        []int{8, 16},
		Trials:    2,
		Seed:      1,
	}
	o, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, c := range o.Cells {
		fmt.Printf("%s mean=%.0f\n", c.Cell, c.Mean)
	}
	// Output:
	// static-path/n=8 mean=7
	// static-path/n=16 mean=15
}
