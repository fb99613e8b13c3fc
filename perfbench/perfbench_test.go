package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
)

// TestMain lets the test binary stand in for the command when a run
// starts it as a set-up probe.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-probe") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinySpec uses every family the workloads use, at small n.
func tinySpec(t *testing.T) campaign.Spec {
	t.Helper()
	spec := campaign.Spec{
		Version: campaign.SpecVersion,
		Scenarios: append(scenarios("random-tree", "random-path", "ascending-path", "block-leader", "stale-ascending"),
			campaign.Scenario{Adversary: "k-leaves", Params: map[string]any{"k": 2}}),
		Ns:     []int{6, 9},
		Trials: 7,
		Seed:   42,
		Goal:   "broadcast",
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func artifact(t *testing.T, out *campaign.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The traced loop, with its adversary decorator, must measure exactly
// what core.Runner.Run measures on undecorated adversaries from the same
// compiled sources, and aggregate to RunSpec's cells.
func TestTracedLoopMatchesRunner(t *testing.T) {
	spec := tinySpec(t)
	cells, err := cellPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, fams, err := tracedLoop(context.Background(), traced, cells, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	seen := map[string]bool{}
	for i, job := range plain {
		info := cells[job.Cell]
		seen[info.family.Name] = true
		adv, err := info.family.NewReusable(info.n, info.params)
		if err != nil {
			t.Fatal(err)
		}
		adv.Reset(job.Src)
		want, err := runner.Run(info.n, adv, core.Broadcast)
		if err != nil {
			t.Fatal(err)
		}
		r := results[i]
		if r.Err != nil || len(r.Measurements) != 1 || r.Measurements[0].Value != float64(want) || r.Measurements[0].Cell != job.Cell {
			t.Fatalf("job %d (%s): traced %+v, runner %d rounds", i, job.Cell, r, want)
		}
	}
	for _, f := range families {
		if !seen[f] || fams[f] == nil || fams[f].rounds == 0 {
			t.Errorf("family %s not exercised by the traced loop", f)
		}
	}

	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := campaign.Aggregate(results)
	if len(got) != len(out.Cells) {
		t.Fatalf("traced loop aggregates to %d cells, RunSpec to %d", len(got), len(out.Cells))
	}
	for i := range got {
		if got[i] != out.Cells[i] {
			t.Errorf("cell %d: traced %+v, RunSpec %+v", i, got[i], out.Cells[i])
		}
	}
	var rounds int64
	for _, tr := range fams {
		rounds += tr.rounds
	}
	if want := outcomeRounds(out); rounds != want {
		t.Errorf("traced loop stepped %d rounds, outcome holds %d", rounds, want)
	}
}

// noDelete is a cache without the optional Deleter side.
type noDelete struct{ cache.Cache }

func TestCacheDecoratorTransparent(t *testing.T) {
	spec := tinySpec(t)
	ctx := context.Background()
	plainOut, err := campaign.RunSpec(ctx, spec, campaign.Config{Cache: cache.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := &cacheTrace{}
	traced := traceCache(dir, tr)
	cold, err := campaign.RunSpec(ctx, spec, campaign.Config{Cache: traced})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := campaign.RunSpec(ctx, spec, campaign.Config{Cache: traced})
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, plainOut)
	if !bytes.Equal(artifact(t, cold), want) || !bytes.Equal(artifact(t, warm), want) {
		t.Fatal("artifacts differ through the cache decorator")
	}
	cells := int64(len(cold.Cells))
	if tr.misses.Load() != cells || tr.hits.Load() != cells || warm.Executed != 0 {
		t.Errorf("misses %d, hits %d, warm executed %d; want %d, %d, 0",
			tr.misses.Load(), tr.hits.Load(), warm.Executed, cells, cells)
	}
	if tr.putBytes.Load() == 0 || tr.putBytes.Load() != tr.getBytes.Load() {
		t.Errorf("put %d bytes, got %d back", tr.putBytes.Load(), tr.getBytes.Load())
	}

	// Deleter stays reachable, so corrupt entries are still healed.
	d, ok := traced.(cache.Deleter)
	if !ok {
		t.Fatal("decorated directory cache lost cache.Deleter")
	}
	if _, ok := traceCache(noDelete{cache.NewMemory()}, tr).(cache.Deleter); ok {
		t.Error("decorated cache claims cache.Deleter its backend lacks")
	}
	jobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	key := jobs[0].Key
	if err := d.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dir.Get(key); ok {
		t.Fatal("Delete through the decorator left the entry")
	}
	if err := dir.Put(key, []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	healed, err := campaign.RunSpec(ctx, spec, campaign.Config{Cache: traced})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifact(t, healed), want) || healed.Executed != spec.Trials {
		t.Errorf("corrupt entry: executed %d jobs, want the cell's %d recomputed", healed.Executed, spec.Trials)
	}
	if data, ok, _ := dir.Get(key); !ok || string(data) == "{torn" {
		t.Error("corrupt entry was not replaced")
	}
}

func TestTransportDecoratorTransparent(t *testing.T) {
	spec := campaign.Spec{Version: campaign.SpecVersion, Scenarios: scenarios("random-tree"),
		Ns: []int{8, 16}, Trials: 400, Seed: 7, Goal: "broadcast"}
	ctx := context.Background()
	local, err := campaign.RunSpec(ctx, spec, campaign.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, local)
	for _, decorate := range []bool{false, true} {
		tt := &transportTrace{}
		var wrap func(http.RoundTripper) http.RoundTripper
		if decorate {
			wrap = tt.wrap
		}
		l, err := startLoopback(50, wrap)
		if err != nil {
			t.Fatal(err)
		}
		out, err := campaign.RunSpec(ctx, spec, campaign.Config{Workers: 1, Remote: l.coord})
		stats := l.coord.Stats()
		if stopErr := l.stop(); stopErr != nil {
			t.Error(stopErr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(artifact(t, out), want) {
			t.Fatalf("decorated=%v: cluster artifact differs from the local one", decorate)
		}
		if !decorate {
			continue
		}
		if tt.leases == 0 || tt.requests < tt.leases || len(tt.pushRTT) < stats.RemoteCells {
			t.Errorf("transport trace saw %d requests, %d leases, %d pushes for %d remote shards",
				tt.requests, tt.leases, len(tt.pushRTT), stats.RemoteCells)
		}
		if stats.RemoteCells > 0 && tt.pushBytes == 0 {
			t.Error("no push bytes recorded")
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		section string
		got     []def
		want    []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.section, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.section, i, g, w)
			}
		}
	}
}

// lastLine runs the command in-process and decodes its result line.
func lastLine(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, r, stdout.String()
}

func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole workloads")
	}
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		code, r, out := lastLine(t, "--workload", "heuristic-mix", "--seed", "3", "--seconds", "1", "--trace", c.trace)
		if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", c.trace, code, r, out)
		}
		if len(r.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(r.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or not in %s: %+v", c.trace, d.name, d.unit, m)
			}
		}
		if !strings.Contains(out, "GOMAXPROCS=") || !strings.Contains(out, "nproc=") {
			t.Errorf("trace %s: report lacks host facts:\n%s", c.trace, out)
		}
	}
}

// Every output check must fail on a wrong output and count its run's jobs
// as failed.
func TestChecksCatchBadOutputs(t *testing.T) {
	spec := tinySpec(t)
	cells, err := cellPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Workers: 2, Cache: dir}
	cold, err := runPath(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runPath(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{}
	if !b.checkOutcome("cold", cold.out, cells) || !b.checkWarm("warm", cold, warm) || !b.checkRemote("cold", &clusterStats{remote: 1}) {
		t.Fatalf("good outputs failed the checks: %v", b.failures)
	}

	over := *cold.out
	over.Cells = append([]campaign.CellStats(nil), cold.out.Cells...)
	over.Cells[0].Max = 1e9
	recomputed := warm
	recomputed.out = &campaign.Outcome{Jobs: warm.out.Jobs, Completed: warm.out.Jobs, Executed: 1, CacheHits: warm.out.Jobs - 1}
	changed := warm
	changed.art = append([]byte("x"), warm.art...)
	for name, bad := range map[string]func(*bench) bool{
		"max over the bound":    func(b *bench) bool { return b.checkOutcome("cold", &over, cells) },
		"warm run recomputed":   func(b *bench) bool { return b.checkWarm("warm", cold, recomputed) },
		"warm artifact differs": func(b *bench) bool { return b.checkWarm("warm", cold, changed) },
		"no remote shard":       func(b *bench) bool { return b.checkRemote("cold", &clusterStats{}) },
	} {
		b := &bench{}
		if bad(b) || len(b.failures) == 0 {
			t.Errorf("%s: check passed", name)
		}
		b.account(cold.out, false)
		if b.failed != cold.out.Jobs || b.attempted != cold.out.Jobs {
			t.Errorf("%s: %d of %d jobs counted failed, want all", name, b.failed, b.attempted)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "large-n", "--trace", "2"},
		{"--workload", "large-n", "--seconds", "0"},
	} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected flags printed a result: %s", stdout.String())
	}
}
