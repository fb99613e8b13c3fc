// Package experiment implements the reproduction harness: one named
// experiment per table/figure/claim of the paper (see DESIGN.md §4), each
// returning a renderable table. The cmd/ binaries and the root bench file
// are thin wrappers over this package, so every number in EXPERIMENTS.md
// can be regenerated from a single entry point.
//
// Every engine-driving trial loop is a scenario-form campaign spec run by
// campaign.RunSpec on a worker pool (default GOMAXPROCS; tune with
// WithWorkers): BestMeasured is one trials-1 spec over the portfolio and
// the search families, Restricted one k-leaves/k-inner spec with a k
// axis, GossipVsBroadcast one spec per goal. Their trials draw the
// campaign's content-addressed cell streams, so results are a pure
// function of the seed and identical for every worker count. Nonsplit is
// a lemma check, not a campaign: a plain loop over per-trial sources
// split from the seed.
package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gamesolver"
	"dyntreecast/internal/gossip"
	"dyntreecast/internal/graph"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/stats"
	"dyntreecast/internal/tree"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case int:
			row[i] = strconv.Itoa(v)
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 2, 64)
		case bool:
			row[i] = strconv.FormatBool(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders an aligned text table.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("experiment: writing table: %w", err)
	}
	return nil
}

// WriteCSV renders the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiment: writing CSV header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: flushing CSV: %w", err)
	}
	return nil
}

// Option tunes how an experiment executes (never what it computes:
// results are identical for every option combination).
type Option func(*config)

type config struct {
	ctx     context.Context
	workers int
}

// WithWorkers sets the campaign worker-pool size for the experiment's
// campaign specs. 0 (the default) selects GOMAXPROCS; 1 runs serially.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithContext makes the experiment cancellable: trial loops stop promptly
// once ctx is done and the experiment returns ctx's error.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

func buildConfig(opts []Option) config {
	c := config{ctx: context.Background()}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// runSpec runs one experiment spec on the campaign pool, failing on
// cancellation or on the first failed trial (in job order, so the error
// is deterministic too).
func runSpec(c config, spec campaign.Spec) (*campaign.Outcome, error) {
	o, err := campaign.RunSpec(c.ctx, spec, campaign.Config{Workers: c.workers})
	if err != nil {
		return nil, err
	}
	if o.Failed > 0 {
		return nil, fmt.Errorf("experiment: %s", o.Errors[0])
	}
	return o, nil
}

// cellStats returns the stats of sc's cell at n in an outcome.
func cellStats(o *campaign.Outcome, sc campaign.Scenario, n int) (campaign.CellStats, bool) {
	name, err := campaign.CellName(sc, n)
	if err != nil {
		return campaign.CellStats{}, false
	}
	return campaign.CellByKey(o.Cells, name)
}

// NamedAdversary pairs an adversary constructor with a display name.
// Constructors take the process count and a seed-derived source so every
// run is reproducible.
type NamedAdversary struct {
	Name string
	New  func(n int, src *rng.Source) core.Adversary
}

// Portfolio returns the standard adversary suite used across experiments:
// the oblivious baselines and the adaptive heuristics. It is the set of
// families flagged Portfolio in the campaign registry, in registry order
// — a fixed six-member prefix, so user registrations never perturb the
// paper-reproduction tables or their random streams.
func Portfolio() []NamedAdversary {
	var out []NamedAdversary
	for _, f := range campaign.Families() {
		if !f.Portfolio {
			continue
		}
		build := f.NewReusable
		name := f.Name
		out = append(out, NamedAdversary{Name: name, New: func(n int, src *rng.Source) core.Adversary {
			adv, err := build(n, nil)
			if err != nil {
				// Portfolio families take no params; construction cannot
				// fail for them. A failure here is a registry bug.
				panic(fmt.Sprintf("experiment: portfolio adversary %s: %v", name, err))
			}
			adv.Reset(src)
			return adv
		}})
	}
	return out
}

// BestMeasured runs the whole portfolio plus the search families — beam
// search, and deep-line search at n = 6 — as one trials-1 campaign spec,
// adds the exact game value where the solver reaches, and returns the
// largest broadcast time achieved and the name of the family that
// achieved it. Every value is a certified lower-bound witness for t*(Tn).
func BestMeasured(n int, seed uint64, opts ...Option) (int, string, error) {
	c := buildConfig(opts)
	var scenarios []campaign.Scenario
	for _, na := range Portfolio() {
		scenarios = append(scenarios, campaign.Scenario{Adversary: na.Name})
	}
	// Beam search (with general-tree proposals) usually wins; cost grows
	// with n so keep the width moderate. Its seed param, not the trial
	// stream, drives the search.
	scenarios = append(scenarios, campaign.Scenario{Adversary: "beam-search", Params: map[string]any{
		"width": 16, "random_moves": 6, "random_trees": 8, "seed": seed}})
	// Anytime deep-line search just past the exact range (n = 6 stays in
	// the hundreds of milliseconds; n = 7 is seconds-to-minutes and left
	// to cmd/exact-solver -deep).
	if n == 6 {
		scenarios = append(scenarios, campaign.Scenario{Adversary: "deepest-line", Params: map[string]any{
			"budget": 6000, "width": 4}})
	}
	o, err := runSpec(c, campaign.Spec{Scenarios: scenarios, Ns: []int{n}, Trials: 1, Seed: seed})
	if err != nil {
		return 0, "", err
	}
	// Exact game value where feasible (solver failures just forfeit).
	exact := -1
	if n <= gamesolver.MaxN {
		if s, err := gamesolver.New(n); err == nil {
			exact = s.Value()
		}
	}
	// Winner selection walks the cells in scenario order with a strict >,
	// the exact value right after beam search, so ties go to the earlier
	// witness.
	best, bestName := -1, ""
	consider := func(t int, name string) {
		if t > best {
			best, bestName = t, name
		}
	}
	for _, cell := range o.Cells {
		family, _, _ := strings.Cut(cell.Cell, "/")
		consider(int(cell.Max), family)
		if family == "beam-search" {
			consider(exact, "exact-optimal")
		}
	}
	return best, bestName, nil
}

// Figure1 reproduces the paper's Figure 1: every bound regime evaluated
// over the given n values, alongside the best measured t* from our
// adversary suite. The measured column must sit at or below the paper's
// linear upper bound everywhere.
func Figure1(ns []int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title: "Figure 1: upper-bound regimes for broadcast in dynamic rooted trees",
		Header: []string{
			"n", "trivial(n^2)", "nlogn[14]", "2nloglogn[9]",
			"linear(new)", "lower[14]", "measured", "witness",
		},
	}
	for _, n := range ns {
		best, name, err := BestMeasured(n, seed, opts...)
		if err != nil {
			return nil, err
		}
		if err := bounds.CheckSandwich(n, best); err != nil {
			return nil, err
		}
		t.AddRow(n, bounds.Trivial(n), bounds.NLogN(n), bounds.NLogLogN(n),
			bounds.UpperLinear(n), bounds.Lower(n), best, name)
	}
	return t, nil
}

// Theorem31 verifies the sandwich of Theorem 3.1 for each n: measured
// best ≤ ⌈(1+√2)n−1⌉ (hard check; a violation falsifies the paper or the
// simulator) and reports how close the measured value gets to the ZSS
// lower bound.
func Theorem31(ns []int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title:  "Theorem 3.1: lower <= t*(Tn) <= ceil((1+sqrt2)n - 1)",
		Header: []string{"n", "lower", "measured", "upper", "measured/n", "ok"},
	}
	for _, n := range ns {
		best, _, err := BestMeasured(n, seed, opts...)
		if err != nil {
			return nil, err
		}
		ok := best <= bounds.UpperLinear(n)
		if !ok {
			return nil, fmt.Errorf("experiment: Theorem 3.1 violated at n=%d: %d > %d",
				n, best, bounds.UpperLinear(n))
		}
		t.AddRow(n, bounds.Lower(n), best, bounds.UpperLinear(n),
			float64(best)/float64(n), ok)
	}
	return t, nil
}

// StaticPath reproduces the §2 observation t*(static path) = n−1 exactly.
func StaticPath(ns []int) (*Table, error) {
	t := &Table{
		Title:  "Static path: t* = n-1 (section 2)",
		Header: []string{"n", "measured", "expected", "ok"},
	}
	for _, n := range ns {
		got, err := core.BroadcastTime(n, adversary.Static{Tree: tree.IdentityPath(n)})
		if err != nil {
			return nil, fmt.Errorf("experiment: static path n=%d: %w", n, err)
		}
		want := bounds.StaticPath(n)
		if got != want {
			return nil, fmt.Errorf("experiment: static path n=%d: got %d, want %d", n, got, want)
		}
		t.AddRow(n, got, want, true)
	}
	return t, nil
}

// Restricted reproduces the Zeiner et al. restricted-adversary regimes:
// mean broadcast time under k-leaf and k-inner random adversaries, with
// the O(kn) bound curve for context. The grid is one campaign spec with a
// k axis; k outside [1, n−1] has no such tree and is skipped.
func Restricted(ns, ks []int, trials int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title:  "Restricted adversaries: k leaves / k inner nodes => O(kn)",
		Header: []string{"n", "k", "mean-t*(k-leaves)", "mean-t*(k-inner)", "bound(kn)", "upper-linear"},
	}
	feasible := func(n, k int) bool { return k >= 1 && k <= n-1 }
	var specNs, specKs []int
	for _, n := range ns {
		if slices.ContainsFunc(ks, func(k int) bool { return feasible(n, k) }) {
			specNs = append(specNs, n)
		}
	}
	for _, k := range ks {
		if k >= 1 {
			specKs = append(specKs, k)
		}
	}
	if len(specNs) == 0 {
		return t, nil
	}
	kScenario := func(family string, k any) campaign.Scenario {
		return campaign.Scenario{Adversary: family, Params: map[string]any{"k": k}}
	}
	o, err := runSpec(buildConfig(opts), campaign.Spec{
		Scenarios: []campaign.Scenario{kScenario("k-leaves", specKs), kScenario("k-inner", specKs)},
		Ns:        specNs, Trials: trials, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, n := range ns {
		for _, k := range ks {
			if !feasible(n, k) {
				continue
			}
			l, ok1 := cellStats(o, kScenario("k-leaves", k), n)
			i, ok2 := cellStats(o, kScenario("k-inner", k), n)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("experiment: restricted n=%d k=%d produced no measurements", n, k)
			}
			t.AddRow(n, k, l.Mean, i.Mean, bounds.RestrictedLeaves(n, k), bounds.UpperLinear(n))
		}
	}
	return t, nil
}

// Nonsplit checks the simulation lemma behind the previous best bound
// ([1] + [9]): the product of any n−1 rooted trees is nonsplit, and
// nonsplit graphs have tiny rooted radius. Each trial draws its n−1 trees
// from its own source, split from the seed in (n, trial) order.
func Nonsplit(ns []int, trials int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title:  "Nonsplit connection: product of n-1 rooted trees is nonsplit",
		Header: []string{"n", "trials", "nonsplit-fraction", "mean-radius", "max-radius"},
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiment: nonsplit needs trials >= 1, got %d", trials)
	}
	c := buildConfig(opts)
	root := rng.New(seed)
	for _, n := range ns {
		nonsplit := make([]float64, trials)
		radius := make([]float64, trials)
		for trial := range trials {
			if err := c.ctx.Err(); err != nil {
				return nil, err
			}
			src := root.Split()
			trees := make([]*tree.Tree, n-1)
			for i := range trees {
				trees[i] = tree.Random(n, src)
			}
			g := graph.ProductOfTrees(trees)
			if g.IsNonsplit() {
				nonsplit[trial] = 1
			}
			radius[trial] = float64(g.Radius())
		}
		r := stats.Summarize(radius)
		t.AddRow(n, trials, stats.Summarize(nonsplit).Mean, r.Mean, int(r.Max))
	}
	return t, nil
}

// Exact reports the exact game values t*(Tn) for small n against the
// bounds and against the heuristic adversaries at the same n.
func Exact(maxN int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title:  "Exact t*(Tn) by game solving vs bounds and heuristics",
		Header: []string{"n", "t*-exact", "lower", "upper", "states", "best-heuristic", "witness"},
	}
	if maxN > gamesolver.MaxN {
		maxN = gamesolver.MaxN
	}
	for n := 2; n <= maxN; n++ {
		s, err := gamesolver.New(n)
		if err != nil {
			return nil, fmt.Errorf("experiment: exact n=%d: %w", n, err)
		}
		v := s.Value()
		best, name, err := BestMeasured(n, seed, opts...)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, v, bounds.Lower(n), bounds.UpperLinear(n),
			s.StatesExplored(), best, name)
	}
	return t, nil
}

// GossipVsBroadcast measures gossip and broadcast completion under random
// trees (E9) — one campaign spec per goal — and demonstrates the
// adversarial gossip stall.
func GossipVsBroadcast(ns []int, trials int, seed uint64, opts ...Option) (*Table, error) {
	t := &Table{
		Title:  "Gossip vs broadcast under random trees (adversarial gossip is unbounded)",
		Header: []string{"n", "mean-broadcast", "mean-gossip", "ratio", "staller-gossip"},
	}
	c := buildConfig(opts)
	random := campaign.Scenario{Adversary: "random-tree"}
	// Gossip under random trees has a geometric tail that the n²+1
	// default budget cuts off at small n (5 rounds at n = 2 fail one
	// trial in 16), so the gossip spec runs at least 64 rounds.
	budget := 64
	for _, n := range ns {
		budget = max(budget, n*n+1)
	}
	outcomes := make(map[string]*campaign.Outcome, 2)
	for _, goal := range []string{"broadcast", "gossip"} {
		o, err := runSpec(c, campaign.Spec{Scenarios: []campaign.Scenario{random},
			Ns: ns, Trials: trials, Seed: seed, Goal: goal, MaxRounds: budget})
		if err != nil {
			return nil, err
		}
		outcomes[goal] = o
	}
	for _, n := range ns {
		mb, ok1 := cellStats(outcomes["broadcast"], random, n)
		mg, ok2 := cellStats(outcomes["gossip"], random, n)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("experiment: gossip n=%d produced no measurements", n)
		}
		staller := "stalls"
		if _, err := gossip.Time(n, gossip.Staller{}, core.WithMaxRounds(4*n)); err == nil {
			staller = "completes"
		}
		t.AddRow(n, mb.Mean, mg.Mean, mg.Mean/mb.Mean, staller)
	}
	return t, nil
}

// CampaignTable renders a campaign outcome as a Table: one row per cell,
// in grid order, with the summary statistics the aggregator computed.
func CampaignTable(o *campaign.Outcome) *Table {
	title := "Campaign"
	if o.Spec.Name != "" {
		title = fmt.Sprintf("Campaign: %s", o.Spec.Name)
	}
	t := &Table{
		Title:  fmt.Sprintf("%s (seed=%d, %d/%d jobs ok)", title, o.Spec.Seed, o.Completed, o.Jobs),
		Header: []string{"cell", "count", "mean", "stddev", "min", "max", "p50", "p99"},
	}
	for _, c := range o.Cells {
		t.AddRow(c.Cell, c.Count, c.Mean, c.StdDev, c.Min, c.Max, c.P50, c.P99)
	}
	return t
}
