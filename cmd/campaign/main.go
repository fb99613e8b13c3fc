// Command campaign runs a sharded, multi-core experiment campaign: a
// declarative adversary × n × k × trials grid planned into cells whose
// trials, each with a deterministically derived random source, execute
// on a worker pool. Output is bit-identical for a given spec and seed regardless of
// -workers, so campaign artifacts are machine-diffable across runs,
// machines, and PRs.
//
// The grid comes from a JSON spec file, from scenario flags, or from the
// -adversaries/-ks shorthand, which builds one scenario per family name
// and hands the -ks values to every family with a k param as its k axis:
//
//	campaign -spec sweep.json -format json -out sweep.json.out
//	campaign -scenario random-tree -scenario '{"adversary":"k-leaves","params":{"k":[2,4]}}' -ns 32,64 -trials 20
//	campaign -adversaries random-tree,random-path -ns 16,32,64 -trials 50
//	campaign -adversaries k-leaves,k-inner -ns 32,64 -ks 2,4,8 -trials 20 -format csv
//	campaign -adversaries random-tree -ns 64 -trials 100 -goal gossip -workers 4 -progress
//
// A spec file is the JSON form of the same grid (schema v2, the scenario
// form; a spec in the retired adversaries/ks form is rejected):
//
//	{"version": 2, "name": "restricted",
//	 "scenarios": [{"adversary": "k-leaves", "params": {"k": [2, 4]}}],
//	 "ns": [32, 64], "trials": 20, "seed": 1}
//
// Jobs are scheduled as cell batches: a cell's trials run sequentially on
// one worker against a pooled engine arena, which is what keeps large
// grids allocation-free (see DESIGN.md §3d); when a grid has fewer cells
// than workers, its cells are split evenly across the pool. The artifact
// is byte-identical for every -workers value.
//
// When stderr is a terminal a live progress line repaints after every
// completed job — done/total cells and trials, observed trials/sec, and
// the ETA they imply. -quiet suppresses it; -progress forces it even
// when stderr is redirected. The line is stderr-only decoration:
// artifacts are byte-identical with or without it.
//
// Interrupting the run (SIGINT/SIGTERM) cancels the pool promptly; the
// aggregate of the jobs that did finish is still written.
//
// -cache DIR wires in the campaign service layer's one persistence path
// (DESIGN.md §3b): a content-addressed store of finished grid cells,
// each written as soon as its last trial lands. Re-running overlapping
// grids recomputes only the new cells, and rerunning an interrupted (or
// killed) campaign with the same -cache resumes it — only the missing
// cells execute, and the final artifact is byte-identical to an
// uninterrupted run:
//
//	campaign -spec sweep.json -cache ~/.dyntreecast-cells -format json
//
// -join ADDR turns the run into a one-shot cluster coordinator: the
// /cluster/lease and /cluster/results endpoints come up on ADDR and
// remote workers (campaignd -worker -join http://ADDR) can lease grid
// cells for the duration of the run, while the local pool keeps working.
// Workers can join and die freely: unleased and abandoned cells fall back
// to local execution, and the artifact is byte-identical to a purely
// local run (see DESIGN.md §3e). -shard-trials N additionally splits each
// cell into leases of at most N trials, so a grid dominated by one big
// cell still spreads across the fleet — again without changing a single
// artifact byte (DESIGN.md §3g):
//
//	campaign -spec sweep.json -join :9090 -shard-trials 8 -format json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
	"dyntreecast/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var scenarios campaign.ScenarioFlag
	fs.Var(&scenarios, "scenario", "scenario: a family name or a JSON object "+
		`{"adversary":NAME,"params":{...}} (repeatable; overrides -adversaries/-ks)`)
	var (
		specPath = fs.String("spec", "", "JSON spec file ('-' = stdin); overrides the grid flags")
		advsFlag = fs.String("adversaries", "random-tree", "comma-separated adversaries: "+strings.Join(campaign.Adversaries(), ", "))
		nsFlag   = fs.String("ns", "16,32,64", "comma-separated n values")
		ksFlag   = fs.String("ks", "", "comma-separated k values (k-leaves / k-inner)")
		trials   = fs.Int("trials", 20, "trials per grid point")
		seed     = fs.Uint64("seed", 1, "campaign seed")
		goal     = fs.String("goal", "broadcast", "goal: broadcast or gossip")
		maxR     = fs.Int("max-rounds", 0, "round budget per run (0 = engine default n^2+1)")
		name     = fs.String("name", "", "campaign name (recorded in artifacts)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		format   = fs.String("format", "table", "output: table, csv, json, jsonl")
		outPath  = fs.String("out", "", "write output to this file instead of stdout")
		progress = fs.Bool("progress", false, "force the live progress line even when stderr is not a terminal")
		quiet    = fs.Bool("quiet", false, "suppress the live progress line on stderr")
		cacheDir = fs.String("cache", "", "content-addressed cell cache directory; overlapping grids and reruns of an interrupted campaign reuse finished cells")
		joinAddr = fs.String("join", "", "accept cluster workers on this address for the run (campaignd -worker -join)")
		leaseTTL = fs.Duration("lease-ttl", cluster.DefaultLeaseTTL, "cell lease lifetime before re-issue (with -join)")
		shardTr  = fs.Int("shard-trials", 0, "lease cells in shards of at most this many trials, so one big cell spreads across workers (with -join; 0 = whole cells; artifacts are identical for every value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *joinAddr == "" {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "lease-ttl" || f.Name == "shard-trials" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("%s is only meaningful with -join", strings.Join(set, ", "))
		}
	}
	if *shardTr < 0 {
		return fmt.Errorf("-shard-trials must be >= 0")
	}

	var spec campaign.Spec
	if *specPath != "" {
		var err error
		spec, err = campaign.LoadSpecFile(*specPath)
		if err != nil {
			return err
		}
	} else {
		ns, err := parseInts(*nsFlag)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		spec = campaign.Spec{
			Name:      *name,
			Ns:        ns,
			Trials:    *trials,
			Seed:      *seed,
			Goal:      *goal,
			MaxRounds: *maxR,
		}
		if len(scenarios) > 0 {
			spec.Scenarios = scenarios
		} else {
			var ks []int
			if *ksFlag != "" {
				if ks, err = parseInts(*ksFlag); err != nil {
					return fmt.Errorf("-ks: %w", err)
				}
			}
			spec.Scenarios = flagScenarios(splitNames(*advsFlag), ks)
		}
		if spec.Goal == "broadcast" {
			spec.Goal = "" // the default; keep artifacts minimal
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := campaign.Config{Workers: *workers}
	if !*quiet && (*progress || stderrIsTerminal()) {
		cfg.Progress = progressLine(spec.Trials, time.Now())
	}
	if *cacheDir != "" {
		c, err := cache.NewDir(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache.Instrument("dir", c)
	}
	if *joinAddr != "" {
		coord := cluster.New(cluster.Options{LeaseTTL: *leaseTTL, ShardTrials: *shardTr})
		ln, err := net.Listen("tcp", *joinAddr)
		if err != nil {
			return fmt.Errorf("-join: %w", err)
		}
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(ln)
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(shutCtx)
		}()
		cfg.Remote = coord
		fmt.Fprintf(os.Stderr, "campaign: accepting cluster workers on %s\n", ln.Addr())
	}
	outcome, runErr := campaign.RunSpec(ctx, spec, cfg)
	if outcome == nil {
		return runErr
	}
	if runErr != nil {
		// Cancelled: report, but still write the partial aggregate.
		fmt.Fprintln(os.Stderr, "campaign:", runErr)
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "campaign: %d jobs executed, %d from cache\n", outcome.Executed, outcome.CacheHits)
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
	if err := write(w, outcome, *format); err != nil {
		return err
	}
	if outcome.Failed > 0 {
		return fmt.Errorf("%d/%d jobs failed (first: %s)", outcome.Failed, outcome.Jobs, outcome.Errors[0])
	}
	return runErr
}

// stderrIsTerminal reports whether stderr is a character device; the
// live progress line defaults on for humans at a terminal and off when
// stderr is redirected (a log capture should not fill with \r frames).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressLine returns a Config.Progress callback that repaints one
// stderr status line per completed job: done/total cells and trials,
// observed trials/sec, and the ETA those imply. Progress callbacks are
// serialized by the runner, so no locking is needed, and the line is
// pure stderr decoration — artifacts are identical with or without it.
func progressLine(trialsPerCell int, start time.Time) func(done, total int) {
	if trialsPerCell <= 0 {
		trialsPerCell = 1
	}
	return func(done, total int) {
		elapsed := time.Since(start).Seconds()
		var rate float64
		if elapsed > 0 {
			rate = float64(done) / elapsed
		}
		eta := "--"
		if rate > 0 && done < total {
			eta = (time.Duration(float64(total-done)/rate*1e9) * time.Nanosecond).Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d cells, %d/%d trials, %.0f trials/sec, ETA %s    ",
			done/trialsPerCell, (total+trialsPerCell-1)/trialsPerCell, done, total, rate, eta)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func write(w io.Writer, outcome *campaign.Outcome, format string) error {
	switch format {
	case "table":
		return experiment.CampaignTable(outcome).WriteText(w)
	case "csv":
		return experiment.CampaignTable(outcome).WriteCSV(w)
	case "json":
		return outcome.WriteJSON(w)
	case "jsonl":
		return outcome.WriteJSONL(w)
	}
	return fmt.Errorf("unknown format %q (want table, csv, json, jsonl)", format)
}

// flagScenarios builds the grid of the -adversaries/-ks shorthand: one
// scenario per family name, and ks as the k axis of each family that
// declares a k param. Unknown names and a k family left without ks fail
// spec validation like any other bad scenario.
func flagScenarios(names []string, ks []int) []campaign.Scenario {
	takesK := make(map[string]bool)
	for _, f := range campaign.Families() {
		for _, p := range f.Params {
			takesK[f.Name] = takesK[f.Name] || p.Name == "k"
		}
	}
	out := make([]campaign.Scenario, len(names))
	for i, name := range names {
		out[i] = campaign.Scenario{Adversary: name}
		if takesK[name] && len(ks) > 0 {
			out[i].Params = map[string]any{"k": ks}
		}
	}
	return out
}

func splitNames(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
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
