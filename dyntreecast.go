// Package dyntreecast simulates and analyzes the broadcast problem on
// dynamic rooted trees, reproducing "Brief Announcement: Broadcasting Time
// in Dynamic Rooted Trees is Linear" (El-Hayek, Henzinger, Schmid; PODC
// 2022).
//
// # Model
//
// n processes communicate in synchronous rounds. Each round an adversary
// chooses an arbitrary rooted tree on the processes; information flows one
// hop along every parent → child edge (each node also keeps its own
// knowledge — the model's self-loops). Knowledge composes as the product
// graph G(t) = G1 ∘ … ∘ Gt, and the broadcast time t* is the first round
// at which some process's value has reached every process. The paper
// proves
//
//	⌈(3n−1)/2⌉ − 2  ≤  t*(Tn)  ≤  ⌈(1+√2)·n − 1⌉
//
// # Quick start
//
//	rounds, err := dyntreecast.BroadcastTime(64,
//	    dyntreecast.RandomAdversary(dyntreecast.NewRand(1)))
//
// The package offers three strata of adversaries (oblivious schedules,
// adaptive heuristics, and search), two exact-equivalence-tested engines,
// the paper's bound formulas, and an exact game solver for small n. See
// the examples/ directory and DESIGN.md for the full tour.
package dyntreecast

import (
	"context"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
	"dyntreecast/internal/consensus"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gamesolver"
	"dyntreecast/internal/gossip"
	"dyntreecast/internal/graph"
	"dyntreecast/internal/nonsplit"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// Core model types, aliased from the implementation packages so that the
// root package is the only import a downstream user needs.
type (
	// Tree is a rooted labeled tree on {0,…,n−1}, the round graph of the
	// model (self-loops implicit).
	Tree = tree.Tree
	// Adversary chooses the tree for each round.
	Adversary = core.Adversary
	// View is the read-only knowledge state an Adversary observes.
	View = core.View
	// Engine is the column-oriented simulation engine, for callers that
	// want to drive rounds manually.
	Engine = core.Engine
	// Result reports a completed (or budget-capped) run.
	Result = core.Result
	// Goal selects broadcast or gossip termination.
	Goal = core.Goal
	// Option configures Run.
	Option = core.Option
	// Rand is the deterministic random source used everywhere.
	Rand = rng.Source
	// ExactSolver computes exact t*(Tn) for small n.
	ExactSolver = gamesolver.Solver
	// Runner is the allocation-free trial driver: it owns one reusable
	// Engine and runs trial after trial on it (Reset instead of
	// reallocation), returning round counts identical to Run's. One
	// Runner per goroutine; see BenchmarkTrialHotPath for the effect.
	Runner = core.Runner
	// ReusableAdversary is an adversary whose per-n scratch persists
	// across trials: Reset rebinds it to a fresh trial's random source.
	// An AdversaryFamily constructs one with its NewReusable hook; the
	// campaign pool builds one per (worker, cell) and Resets it per trial.
	ReusableAdversary = campaign.ReusableAdversary
)

// NewRunner returns an empty Runner; its engine is built at the first
// run and resized on demand.
func NewRunner() *Runner { return core.NewRunner() }

// Goals.
const (
	// Broadcast stops when some value has reached every process (t*).
	Broadcast = core.Broadcast
	// Gossip stops when every process has heard every value. Unbounded
	// under adaptive adversaries; see internal/gossip's documentation.
	Gossip = core.Gossip
)

// Sentinel errors.
var (
	// ErrMaxRounds reports an exhausted round budget.
	ErrMaxRounds = core.ErrMaxRounds
	// ErrBadTree reports an adversary returning nil or a wrong-size tree.
	ErrBadTree = core.ErrBadTree
	// ErrInvalidTree wraps all tree-construction failures.
	ErrInvalidTree = tree.ErrInvalidTree
)

// NewRand returns a deterministic random source. Equal seeds give
// bit-identical streams on every platform and Go release.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewTree builds a rooted tree from a parent array (the root is its own
// parent).
func NewTree(parents []int) (*Tree, error) { return tree.New(parents) }

// PathTree returns the directed path visiting order[0] → order[1] → …;
// order must be a permutation of [0,n).
func PathTree(order []int) (*Tree, error) { return tree.Path(order) }

// IdentityPathTree returns the path 0 → 1 → … → n−1, the static schedule
// with t* = n−1.
func IdentityPathTree(n int) *Tree { return tree.IdentityPath(n) }

// StarTree returns the star rooted at root: broadcast completes in one
// round.
func StarTree(n, root int) (*Tree, error) { return tree.Star(n, root) }

// RandomTree returns a uniformly random rooted labeled tree on n vertices
// (all n^(n−1) trees equally likely).
func RandomTree(n int, r *Rand) *Tree { return tree.Random(n, r) }

// NewEngine returns a fresh simulation engine on n processes for manual
// stepping; most callers use Run or BroadcastTime instead.
func NewEngine(n int) *Engine { return core.NewEngine(n) }

// Run drives adv from the initial state until the goal holds.
func Run(n int, adv Adversary, goal Goal, opts ...Option) (Result, error) {
	return core.Run(n, adv, goal, opts...)
}

// BroadcastTime runs adv to broadcast completion and returns the paper's
// quantity t*.
func BroadcastTime(n int, adv Adversary, opts ...Option) (int, error) {
	return core.BroadcastTime(n, adv, opts...)
}

// WithMaxRounds caps a run's rounds (default n²+1, which §2 of the paper
// guarantees suffices for broadcast).
func WithMaxRounds(m int) Option { return core.WithMaxRounds(m) }

// WithObserver installs a per-round callback. The tree it receives is
// valid only until the next round — in-place adversaries such as
// RandomAdversary reuse its storage — so copy it (t.Parents()) to keep it.
func WithObserver(fn func(round int, t *Tree, e *Engine)) Option {
	return core.WithObserver(fn)
}

// StaticAdversary plays the same tree every round.
func StaticAdversary(t *Tree) Adversary { return adversary.Static{Tree: t} }

// ScheduleAdversary plays the given trees in order, then repeats the last
// one forever.
func ScheduleAdversary(trees []*Tree) Adversary { return adversary.Replay{Trees: trees} }

// RandomAdversary plays an independent uniformly random rooted tree each
// round. It generates trees in place, so a returned tree is valid until
// the next round.
func RandomAdversary(r *Rand) Adversary { return adversary.NewRandom(r) }

// RandomPathAdversary plays an independent uniformly random path each
// round.
func RandomPathAdversary(r *Rand) Adversary { return adversary.NewRandomPath(r) }

// KLeavesAdversary plays random trees with exactly k leaves — the
// restricted class with O(k·n) broadcast time (Zeiner et al.).
func KLeavesAdversary(k int, r *Rand) Adversary { return adversary.NewKLeaves(k, r) }

// KInnerAdversary plays random trees with exactly k inner nodes — the
// other restricted O(k·n) class.
func KInnerAdversary(k int, r *Rand) Adversary { return adversary.NewKInner(k, r) }

// AscendingPathAdversary plays the path ordered by ascending heard-set
// size: a strong deterministic stalling heuristic (≈ n−1 rounds).
func AscendingPathAdversary() Adversary { return &adversary.AscendingPath{} }

// BlockLeaderAdversary freezes the most-spread value each round.
func BlockLeaderAdversary() Adversary { return &adversary.BlockLeader{} }

// MinGainAdversary plays a minimum-total-knowledge-gain arborescence each
// round (Chu-Liu/Edmonds). Deliberately measurable as a *failed* heuristic:
// ignoring concentration, it ties into a star and loses immediately — see
// EXPERIMENTS.md E8.
func MinGainAdversary() Adversary { return adversary.MinGain{} }

// SearchSchedule runs an offline beam search for a long-surviving tree
// schedule and returns it with the broadcast time it certifies.
func SearchSchedule(n int, width int, seed uint64) (Adversary, int) {
	rep, rounds := adversary.BeamSearch(n, adversary.BeamConfig{Width: width, Seed: seed})
	return rep, rounds
}

// NewExactSolver returns the exact game solver for n ≤ 5 (see the
// gamesolver package for the complexity discussion).
func NewExactSolver(n int) (*ExactSolver, error) { return gamesolver.New(n) }

// DeepSearchSchedule runs the anytime deep-line game search (n ≤ 8;
// practical for n ≤ 7) and returns the longest surviving schedule found as
// an adversary, together with the broadcast time it certifies. Unlike
// NewExactSolver it gives a lower-bound witness rather than the exact
// value; with modest budgets it certifies the ⌈(3n−1)/2⌉−2 values at
// n = 6 and 7, beyond exact-solver reach.
func DeepSearchSchedule(n, budget, width int) (Adversary, int, error) {
	line, _, err := gamesolver.DeepestLine(n, budget, width)
	if err != nil {
		return nil, 0, err
	}
	adv := adversary.Replay{Trees: line}
	rounds, err := core.BroadcastTime(n, adv)
	if err != nil {
		return nil, 0, err
	}
	return adv, rounds, nil
}

// OptimalAdversary is perfect play for small n, backed by an ExactSolver.
func OptimalAdversary(s *ExactSolver) Adversary { return gamesolver.Optimal{S: s} }

// LowerBound returns ⌈(3n−1)/2⌉ − 2, the known lower bound on t*(Tn).
func LowerBound(n int) int { return bounds.Lower(n) }

// UpperBound returns ⌈(1+√2)·n − 1⌉, the paper's linear upper bound.
func UpperBound(n int) int { return bounds.UpperLinear(n) }

// TrivialBound returns n² (§2).
func TrivialBound(n int) int { return bounds.Trivial(n) }

// NLogNBound returns the ⌈n·log₂ n⌉ bound curve of [2]+[1].
func NLogNBound(n int) int { return bounds.NLogN(n) }

// NLogLogNBound returns the ⌈2n·log₂log₂ n⌉ curve of [9].
func NLogLogNBound(n int) int { return bounds.NLogLogN(n) }

// CheckSandwich errors if a measured broadcast time violates the paper's
// upper bound (which would falsify Theorem 3.1 or reveal a bug).
func CheckSandwich(n, tstar int) error { return bounds.CheckSandwich(n, tstar) }

// GossipTime runs adv until every process has heard every value. Unlike
// broadcast, adversarial gossip need not terminate (see StallerAdversary);
// set WithMaxRounds and handle ErrMaxRounds.
func GossipTime(n int, adv Adversary, opts ...Option) (int, error) {
	return gossip.Time(n, adv, opts...)
}

// BroadcastAndGossipTimes reports, for one run of adv, the round at which
// broadcast completed and the round at which gossip completed.
func BroadcastAndGossipTimes(n int, adv Adversary, opts ...Option) (broadcast, gossipRounds int, err error) {
	return gossip.BothTimes(n, adv, opts...)
}

// StallerAdversary stalls gossip forever on any n ≥ 2 (while completing
// broadcast in a single round): it always plays the star rooted at the
// last process, whose own heard set therefore never grows.
func StallerAdversary() Adversary { return gossip.Staller{} }

// ProductOfTreesIsNonsplit reports whether the product graph of the given
// round graphs has a common in-neighbor for every pair of vertices. The
// simulation lemma behind the previous O(n log log n) bound states this
// always holds for any n−1 rooted trees on n vertices.
func ProductOfTreesIsNonsplit(trees []*Tree) bool {
	return graph.ProductOfTrees(trees).IsNonsplit()
}

// ProductOfTreesRadius returns the minimum eccentricity over vertices that
// reach everyone in the product graph of the given round graphs, or −1 if
// no vertex reaches all others.
func ProductOfTreesRadius(trees []*Tree) int {
	return graph.ProductOfTrees(trees).Radius()
}

// ConsensusResult reports a FloodMin consensus run.
type ConsensusResult = consensus.Result

// FloodMin runs flooding consensus on top of the broadcast engine: every
// process decides min(proposals) once it has heard from everyone.
// Termination equals gossip completion, so adaptive adversaries can stall
// it forever (use WithMaxRounds); agreement and validity always hold.
func FloodMin(proposals []int, adv Adversary, opts ...Option) (ConsensusResult, error) {
	return consensus.FloodMin(proposals, adv, opts...)
}

// NonsplitAdversary chooses a nonsplit round graph each round — the §5
// extension setting (Függer–Nowak–Winkler's O(log log n) regime).
type NonsplitAdversary = nonsplit.Adversary

// NonsplitBroadcastTime runs the broadcast game restricted to nonsplit
// round graphs. maxRounds ≤ 0 selects a budget a few times the
// O(log log n) bound.
func NonsplitBroadcastTime(n int, adv NonsplitAdversary, maxRounds int) (int, error) {
	return nonsplit.Time(n, adv, maxRounds)
}

// Campaign declaratively describes a parallel experiment sweep: the cross
// product scenarios × ns × trials, run toward a goal from one seed. A
// scenario names a registered adversary family with a JSON-serializable
// parameter assignment; array-valued params expand as axes. See the
// campaign package for the determinism contract and Canonical for the
// schema rules.
type Campaign = campaign.Spec

// Scenario selects one registered adversary family, with a parameter
// assignment, for a Campaign grid. Array-valued params are axes: they
// expand into one grid scenario per element (the cross product when
// several params carry arrays), and omitted params take the family's
// declared defaults.
type Scenario = campaign.Scenario

// AdversaryFamily is one self-describing entry of the open adversary
// registry: a name, declared parameters (with kinds and defaults), an
// optional validity/feasibility contract, and a constructor. Register
// one with RegisterAdversary to make it addressable from Campaign specs,
// cmd/campaign and cmd/sweep, and campaignd — including the cell cache,
// resume, and streaming paths.
type AdversaryFamily = campaign.Family

// AdversaryParam declares one parameter of an AdversaryFamily: JSON key,
// kind (IntParam, FloatParam, StringParam, BoolParam), and an optional
// default (nil makes the parameter required).
type AdversaryParam = campaign.Param

// AdversaryParams is the concrete parameter assignment an
// AdversaryFamily's constructor receives: canonicalized JSON scalars
// keyed by parameter name, with Int/Float/String/Bool accessors.
type AdversaryParams = campaign.Params

// Parameter kinds an AdversaryParam may declare.
const (
	// IntParam accepts JSON integers.
	IntParam = campaign.IntParam
	// FloatParam accepts any JSON number.
	FloatParam = campaign.FloatParam
	// StringParam accepts JSON strings.
	StringParam = campaign.StringParam
	// BoolParam accepts JSON booleans.
	BoolParam = campaign.BoolParam
)

// RegisterAdversary adds a custom parameterized adversary family to the
// open registry, plugging it into campaigns, caching, and campaignd
// without forking internals:
//
//	err := dyntreecast.RegisterAdversary(dyntreecast.AdversaryFamily{
//	    Name:   "my-adversary",
//	    Params: []dyntreecast.AdversaryParam{{Name: "depth", Kind: dyntreecast.IntParam, Default: 2}},
//	    NewReusable: func(n int, p dyntreecast.AdversaryParams) (dyntreecast.ReusableAdversary, error) {
//	        return newMyAdversary(n, p.Int("depth")), nil // Reset(r) binds each trial's source
//	    },
//	})
//
// Family names are unique; re-registering one is an error. Safe for
// concurrent use.
func RegisterAdversary(f AdversaryFamily) error { return campaign.Register(f) }

// AdversaryFamilies returns every registered adversary family in
// canonical order: built-ins first, then registrations in order.
func AdversaryFamilies() []AdversaryFamily { return campaign.Families() }

// CampaignOutcome is the aggregated, machine-diffable result of a
// campaign: per-cell count/mean/stddev/min/max/p50/p99 plus error
// accounting. Its WriteJSON and WriteJSONL methods emit artifacts that
// are byte-identical for identical specs regardless of worker count.
type CampaignOutcome = campaign.Outcome

// CampaignCell is one aggregated grid point of a campaign.
type CampaignCell = campaign.CellStats

// CampaignCacheStore is a content-addressed store of finished campaign
// cells (adversary × n × k grid points). Results are keyed by everything
// that determines them — the spec seed, cell coordinates, goal, round
// budget, trial count, and engine version — so a hit is always
// byte-identical to a recomputation. An implementation's Put must not
// retain its data argument once it returns.
type CampaignCacheStore = cache.Cache

// NewMemoryCampaignCache returns an in-process cell cache, useful for
// repeated overlapping campaigns inside one program (and for tests).
func NewMemoryCampaignCache() CampaignCacheStore { return cache.NewMemory() }

// NewDirCampaignCache returns a filesystem cell cache rooted at dir
// (created if needed). It persists across processes and is safe for
// concurrent use, including by several campaigns at once.
func NewDirCampaignCache(dir string) (CampaignCacheStore, error) { return cache.NewDir(dir) }

// CampaignOption tunes RunCampaign.
type CampaignOption func(*campaignSettings)

type campaignSettings struct {
	cfg campaign.Config
}

// CampaignWithCache serves cells already present in store instead of
// recomputing them, and stores each freshly computed cell as soon as its
// last trial lands. Overlapping grids recompute only their new cells,
// and an interrupted (cancelled or killed) campaign resumes by running
// it again with the same store: only the missing cells execute.
// Artifacts are unchanged either way.
func CampaignWithCache(store CampaignCacheStore) CampaignOption {
	return func(s *campaignSettings) { s.cfg.Cache = store }
}

// CampaignWithProgress reports (done, total) after every completed job;
// calls are serialized.
func CampaignWithProgress(fn func(done, total int)) CampaignOption {
	return func(s *campaignSettings) { s.cfg.Progress = fn }
}

// ClusterCoordinator shards running campaigns' grid cells to remote
// workers over HTTP — the distributed campaign fabric. Mount its Handler
// (or serve it through campaignd -cluster) so workers started with
// campaignd -worker -join can lease cells; install it into a run with
// CampaignWithCluster. Because every cell is a pure function of its
// content address, remote workers — including ones that die mid-cell,
// time out, or speak the wrong engine version — can never change
// artifact bytes, only wall-clock time.
type ClusterCoordinator = cluster.Coordinator

// NewClusterCoordinator returns a coordinator with the default lease
// lifetime that leases whole cells. One coordinator serves any number of
// concurrent campaigns.
func NewClusterCoordinator() *ClusterCoordinator { return cluster.New(cluster.Options{}) }

// NewShardedClusterCoordinator returns a coordinator that leases each
// grid cell in shards of at most shardTrials trials, so a grid dominated
// by one big cell still spreads across the fleet. Because every trial's
// random stream derives from the cell's content address and the trial's
// index, sharding never changes artifact bytes — any shardTrials value (including 0,
// whole cells) produces the identical outcome. See DESIGN.md §3g.
func NewShardedClusterCoordinator(shardTrials int) *ClusterCoordinator {
	return cluster.New(cluster.Options{ShardTrials: shardTrials})
}

// CampaignWithCluster distributes the campaign's grid cells through c:
// remote workers lease cells — or trial shards of cells, with
// NewShardedClusterCoordinator — over HTTP while the local pool keeps
// executing, and whichever side finishes a unit first supplies its
// (byte-identical) results. Unleased and abandoned units always fall
// back to local workers, so the campaign completes even if every worker
// dies. Composes unchanged with CampaignWithCache — only cells the
// cache doesn't already hold are distributed, and remotely computed
// cells are stored like local ones.
func CampaignWithCluster(c *ClusterCoordinator) CampaignOption {
	return func(s *campaignSettings) { s.cfg.Remote = c }
}

// RunClusterWorker joins the cluster coordinator at url (e.g.
// "http://host:8080") and executes leased cells until ctx is cancelled:
// the in-process form of campaignd -worker -join. Returns nil on
// cancellation; a version-handshake rejection or an unreachable
// coordinator is an error.
func RunClusterWorker(ctx context.Context, url string) error {
	return cluster.RunWorker(ctx, url, cluster.WorkerOptions{})
}

// RunCampaign plans spec into grid cells and executes their trials, by
// index, on a worker pool (workers <= 0 selects GOMAXPROCS). The outcome is bit-identical for any worker
// count — and, because each grid cell's random streams are derived from
// the seed and the cell's own coordinates alone, identical cells of
// different campaigns agree too, which is what makes the cell cache
// sound. Cancel ctx to stop early; the partial outcome is still
// returned, and with CampaignWithCache every cell that completed is
// already stored, so rerunning the campaign over the same store resumes
// it to a byte-identical artifact.
func RunCampaign(ctx context.Context, spec Campaign, workers int, opts ...CampaignOption) (*CampaignOutcome, error) {
	s := campaignSettings{cfg: campaign.Config{Workers: workers}}
	for _, opt := range opts {
		opt(&s)
	}
	return campaign.RunSpec(ctx, spec, s.cfg)
}

// CampaignAdversaries lists the adversary family names a Campaign may
// reference, in canonical registry order.
//
// Deprecated: it survives as a shim over the open registry; use
// AdversaryFamilies, which also exposes each family's parameters.
func CampaignAdversaries() []string { return campaign.Adversaries() }

// RandomCoverAdversary plays nonsplit graphs that cover each vertex pair
// with a random witness — the non-degenerate random family of the
// nonsplit game.
func RandomCoverAdversary(r *Rand) NonsplitAdversary { return nonsplit.RandomCover{Src: r} }

// LazyCoverAdversary is the adaptive stalling heuristic of the nonsplit
// game.
func LazyCoverAdversary() NonsplitAdversary { return nonsplit.LazyCover{} }
