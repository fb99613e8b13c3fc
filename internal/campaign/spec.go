package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
)

// EngineVersion names the simulation semantics that cell results depend
// on. It participates in every cache key and spec hash, so bumping
// it (whenever engines, adversaries, or stream derivation change results)
// invalidates stale stored cells instead of silently serving them.
// Version 3 marks spec schema v2: cell identities hash canonicalized
// scenario parameters instead of the old closed adversary/k form.
const EngineVersion = "dyntreecast-engine/3"

// SpecVersion is the spec schema version: the scenario form. A spec with
// Version 0 is read as the same schema; Version 1, the retired
// adversaries/ks form, is rejected with an error that names the scenario
// form.
const SpecVersion = 2

// scenarioFormHint ends every error about the retired schema.
const scenarioFormHint = `use the scenario form: "scenarios": [{"adversary": NAME, "params": {...}}]`

// maxGridTrials bounds a spec's grid points × trials, the trial indexes
// one campaign hands out: they stay ints on every platform, 32-bit ones
// included, and a campaign's round counts stay within 8 GiB.
const maxGridTrials = math.MaxInt32

// Spec declaratively describes a campaign: the cross product of
// Scenarios × Ns × Trials, run toward Goal, seeded by Seed. A Spec plus
// its seed fully determines the campaign's Outcome, independent of
// worker count.
//
// Each Scenario names a registered adversary family with a JSON
// parameter assignment; array-valued params expand as axes.
type Spec struct {
	Version   int        `json:"version,omitempty"`
	Name      string     `json:"name,omitempty"`
	Scenarios []Scenario `json:"scenarios,omitempty"`
	Ns        []int      `json:"ns"`
	Trials    int        `json:"trials"`
	Seed      uint64     `json:"seed"`
	Goal      string     `json:"goal,omitempty"`       // "broadcast" (default) or "gossip"
	MaxRounds int        `json:"max_rounds,omitempty"` // 0 = the engine default n²+1
}

// Canonical validates the spec and returns its canonical form: Version
// set to SpecVersion, every scenario ground (axes expanded in
// declaration order, defaults filled, values normalized).
// Canonicalization is idempotent, and every equivalent spelling of a
// grid — axis list or expanded — converges to the same canonical spec,
// which is why they share cache keys, spec hashes, and artifact bytes.
func (s *Spec) Canonical() (Spec, error) {
	canon, _, err := s.canonical()
	return canon, err
}

func (s *Spec) canonical() (Spec, []groundScenario, error) {
	switch {
	case s.Version == 1:
		return Spec{}, nil, fmt.Errorf("campaign: spec version 1 (the retired adversaries/ks form) is no longer accepted; %s", scenarioFormHint)
	case s.Version < 0 || s.Version > SpecVersion:
		return Spec{}, nil, fmt.Errorf("campaign: unsupported spec version %d (this engine speaks %d)", s.Version, SpecVersion)
	case len(s.Scenarios) == 0:
		return Spec{}, nil, fmt.Errorf("campaign: spec needs at least one scenario")
	}
	var grounds []groundScenario
	for _, sc := range s.Scenarios {
		g, err := expandScenario(sc)
		if err != nil {
			return Spec{}, nil, err
		}
		grounds = append(grounds, g...)
	}
	if len(s.Ns) == 0 {
		return Spec{}, nil, fmt.Errorf("campaign: spec needs at least one n")
	}
	for _, n := range s.Ns {
		if n < 1 {
			return Spec{}, nil, fmt.Errorf("campaign: n must be >= 1, got %d", n)
		}
	}
	if s.Trials < 1 {
		return Spec{}, nil, fmt.Errorf("campaign: trials must be >= 1, got %d", s.Trials)
	}
	if s.Trials > maxGridTrials/len(grounds)/len(s.Ns) {
		return Spec{}, nil, fmt.Errorf("campaign: %d scenarios × %d ns × %d trials exceed the %d trials one campaign can index",
			len(grounds), len(s.Ns), s.Trials, maxGridTrials)
	}
	switch s.Goal {
	case "", "broadcast", "gossip":
	default:
		return Spec{}, nil, fmt.Errorf("campaign: unknown goal %q (want broadcast or gossip)", s.Goal)
	}
	if s.MaxRounds < 0 {
		return Spec{}, nil, fmt.Errorf("campaign: max_rounds must be >= 0, got %d", s.MaxRounds)
	}
	canon := *s
	canon.Version = SpecVersion
	canon.Scenarios = make([]Scenario, len(grounds))
	for i, g := range grounds {
		canon.Scenarios[i] = g.scenario()
	}
	return canon, grounds, nil
}

// SpecHash returns the stable identity of a spec: a hex SHA-256 over the
// engine version and the spec's canonical JSON (campaignd derives
// campaign ids from it). Any change to the spec — or to the engine
// semantics — yields a different hash. The hash covers what determines
// results, not presentation: the display Name is ignored, the default
// goal is spelled out, and the spec is canonicalized first (scenarios
// ground), so every equivalent spelling of a campaign shares one hash. An invalid spec hashes its raw
// form.
func SpecHash(spec Spec) string {
	if canon, err := spec.Canonical(); err == nil {
		spec = canon
	}
	spec.Name = ""
	spec.Goal = spec.goalName()
	data, err := json.Marshal(spec)
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot fail.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, EngineVersion+"|spec|")
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Validate reports the first structural problem of the spec, or nil.
func (s *Spec) Validate() error {
	_, err := s.Canonical()
	return err
}

func (s *Spec) goal() core.Goal {
	if s.Goal == "gossip" {
		return core.Gossip
	}
	return core.Broadcast
}

// goalName returns the normalized goal for identity strings.
func (s *Spec) goalName() string {
	if s.Goal == "" {
		return "broadcast"
	}
	return s.Goal
}

// cellIdentity is the canonical string of everything that determines one
// cell's trial results: the engine version, the campaign seed, the goal
// and round budget, and the cell coordinates — the ground scenario's
// canonical form (family name + sorted-key params JSON) and n. It
// deliberately excludes the trial count — trial streams are split
// serially from the cell root, so the trials of a smaller campaign are a
// prefix of a larger one's.
func (s *Spec) cellIdentity(g groundScenario, n int) string {
	return fmt.Sprintf("%s|seed=%d|goal=%s|maxr=%d|scenario=%s|n=%d",
		EngineVersion, s.Seed, s.goalName(), s.MaxRounds, g.canon, n)
}

// cellSeed derives the root seed of one cell's random streams by hashing
// the cell identity. Streams therefore depend only on the cell and the
// campaign seed — not on where the cell sits in the grid — which is what
// makes content-addressed caching of cells sound: the same cell in two
// different specs (same seed) produces the same results.
func (s *Spec) cellSeed(g groundScenario, n int) uint64 {
	sum := sha256.Sum256([]byte(s.cellIdentity(g, n)))
	return binary.BigEndian.Uint64(sum[:8])
}

// cellCacheKey is the content address of one fully-run cell: the cell
// identity plus the trial count, hashed. See DESIGN.md §3b.
func (s *Spec) cellCacheKey(g groundScenario, n int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|trials=%d", s.cellIdentity(g, n), s.Trials)))
	return hex.EncodeToString(sum[:])
}

// cellPlan records one grid cell of a planned spec: its coordinates, its
// cache key, and the job-index range [Lo, Hi) of its trials, in trial
// order. ground and N are the cell's canonical coordinates, kept so the
// executor can build the cell's adversary and the remote layer can
// rebuild the cell as a self-contained single-cell spec (see cellJob);
// seed, goal and maxRounds are what the executor needs to run its
// trials.
type cellPlan struct {
	Cell      string // display key (groundScenario.cellName)
	Key       string // content address (cellCacheKey)
	ground    groundScenario
	N         int    // the cell's n coordinate
	Lo, Hi    int    // job indexes of the cell's trials
	seed      uint64 // root seed of the cell's trial streams (cellSeed)
	goal      core.Goal
	maxRounds int
}

// plan validates the spec and lays out its grid without building jobs:
// one cellPlan per feasible (scenario, n) point, walked in a fixed nested
// order (scenario, n), scenarios in canonical order, each cell owning the
// next Trials job indexes. Grid points the family reports infeasible
// (e.g. k > n−1 for the restricted families) are skipped. Its cost is
// O(cells), whatever the trial count.
func (s *Spec) plan() ([]cellPlan, Spec, error) {
	canon, grounds, err := s.canonical()
	if err != nil {
		return nil, Spec{}, err
	}
	var cells []cellPlan
	lo := 0
	for _, g := range grounds {
		for _, n := range canon.Ns {
			if !g.feasible(n) {
				continue
			}
			cells = append(cells, cellPlan{Cell: g.cellName(n), Key: canon.cellCacheKey(g, n),
				ground: g, N: n, Lo: lo, Hi: lo + canon.Trials,
				seed: canon.cellSeed(g, n), goal: canon.goal(), maxRounds: canon.MaxRounds})
			lo += canon.Trials
		}
	}
	if len(cells) == 0 {
		return nil, Spec{}, fmt.Errorf("campaign: spec compiles to an empty grid (every scenario infeasible?)")
	}
	return cells, canon, nil
}

// newAdversary builds the cell's reusable adversary.
func (c *cellPlan) newAdversary() (ReusableAdversary, error) {
	return c.ground.family.NewReusable(c.N, c.ground.params)
}

// execute is the cell executor: it runs trials [lo, hi) of the cell on
// arena a, in trial order, writes trial i's round count to rounds[i-lo],
// and returns how many trials it ran. Trial i draws from New(the cell
// root's i-th output) — the source Split hands the i-th trial — so the
// arena's root is advanced to lo (from where the worker's last range of
// the cell left it, when that is not past lo) and its one trial Source
// is reseeded per trial: a trial's stream depends on its index alone,
// never on the range that ran it. after is told each trial's error (nil
// on success); execution stops after a trial it answers false for, and
// before the next trial once ctx is done. A failed trial's slot is 0.
func (c *cellPlan) execute(ctx context.Context, lo, hi int, a *Arena, rounds []uint32, after func(i int, err error) bool) int {
	if a.rootOf != c || a.next > lo {
		a.root.Seed(c.seed)
		a.rootOf, a.next = c, 0
	}
	for ; a.next < lo; a.next++ {
		a.root.Uint64()
	}
	build := c.newAdversary
	for i := lo; i < hi; i++ {
		if ctx.Err() != nil {
			return i - lo
		}
		a.src.Seed(a.root.Uint64())
		a.next++
		r, err := c.trial(&a.src, a, build)
		rounds[i-lo] = r
		if !after(i, err) {
			return i - lo + 1
		}
	}
	return hi - lo
}

// trial runs one trial of the cell from src on arena a, building the
// adversary through build when the arena holds another cell's.
func (c *cellPlan) trial(src *rng.Source, a *Arena, build func() (ReusableAdversary, error)) (uint32, error) {
	adv, err := a.AdversaryFor(c.Cell, src, build)
	if err == nil {
		a.Runner.MaxRounds = c.maxRounds
		var rounds int
		if rounds, err = a.Runner.Run(c.N, adv, c.goal); err == nil {
			if uint64(rounds) <= math.MaxUint32 {
				return uint32(rounds), nil
			}
			err = fmt.Errorf("%d rounds overflow a round count", rounds)
		}
	}
	return 0, fmt.Errorf("campaign: %s: %w", c.Cell, err)
}

// Compile validates the spec and expands its planned grid into jobs, one
// per trial, cell after cell. Each job owns the source Split hands its
// trial off the cell's root — the stream the cell executor derives for
// the same trial index — and runs the trial the executor would.
//
// Deprecated: part of the job-per-trial adapter (see Run). RunSpec plans
// cells without building jobs.
func (s *Spec) Compile() ([]Job, error) {
	cells, _, err := s.plan()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, cells[len(cells)-1].Hi)
	for i := range cells {
		c := &cells[i]
		build := c.newAdversary
		run := func(_ context.Context, src *rng.Source, a *Arena) ([]Measurement, error) {
			rounds, err := c.trial(src, a, build)
			if err != nil {
				return nil, err
			}
			return []Measurement{{Cell: c.Cell, Value: float64(rounds)}}, nil
		}
		root := rng.New(c.seed)
		for range c.Hi - c.Lo {
			jobs = append(jobs, Job{Index: len(jobs), Cell: c.Cell, Src: root.Split(), Run: run})
		}
	}
	return jobs, nil
}

// Outcome is the aggregated, machine-diffable result of a campaign run.
// It deliberately carries no timestamps or host details: two runs of the
// same spec produce byte-identical JSON regardless of worker count. The
// embedded Spec is the canonical form, so every equivalent spelling of a
// grid emits identical artifact bytes.
type Outcome struct {
	Spec      Spec        `json:"spec"`
	Jobs      int         `json:"jobs"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Cells     []CellStats `json:"cells"`
	Errors    []string    `json:"errors,omitempty"`

	// Job-accounting fields, populated by RunSpec and excluded from the
	// JSON artifact so that warm-cache and resumed runs stay byte-identical
	// to cold ones. Executed + CacheHits == Completed + Failed for an
	// uncancelled run.
	Executed  int `json:"-"` // jobs actually run by the worker pool
	CacheHits int `json:"-"` // jobs satisfied from Config.Cache
}

// CellEntryFormat is the format byte that opens every cell entry: the
// one encoding of a cell's (or a shard's) trials, shared by the cell
// cache, the results warehouse and cluster result pushes. An entry is
//
//	format byte | uvarint len(cell) | cell | uvarint trials | trials × uvarint rounds
//
// with one round count per trial, in trial order. The format lives in
// the entry, not in the cache key, so cache keys stay the warehouse's
// cell identities; an entry in any other format (the JSON entries of
// older builds among them) fails to decode and is healed like a torn one.
// Cluster workers present it at lease time, next to EngineVersion.
const CellEntryFormat = 1

// maxEntryRounds bounds an entry's round counts to what a trial's uint32
// round count holds, so every decoded entry re-encodes to the same bytes.
const maxEntryRounds = math.MaxUint32

// appendCellEntry appends to b the entry of the named cell whose trials
// have the given round counts, in trial order.
func appendCellEntry(b []byte, cell string, rounds []uint32) []byte {
	b = append(b, CellEntryFormat)
	b = binary.AppendUvarint(b, uint64(len(cell)))
	b = append(b, cell...)
	b = binary.AppendUvarint(b, uint64(len(rounds)))
	for _, r := range rounds {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return b
}

// DecodeCellEntry decodes an entry that must be the named cell's and hold
// exactly trials trials, returning one round count per trial, in trial
// order, in a single allocation. It is the one reader of cell cache
// entries and cluster pushes alike, and it trusts nothing: the format,
// the cell name and the trial count are checked against the caller's
// expectation, and the count against the bytes that remain, before
// anything is allocated; torn input, non-minimal varints, round counts
// beyond maxEntryRounds and trailing bytes are errors.
func DecodeCellEntry(data []byte, cell string, trials int) ([]uint32, error) {
	if len(data) == 0 || data[0] != CellEntryFormat {
		return nil, fmt.Errorf("campaign: cell entry %s: not in entry format %d", cell, CellEntryFormat)
	}
	p := data[1:]
	nameLen, p, err := entryUvarint(p)
	if err != nil || nameLen > uint64(len(p)) {
		return nil, fmt.Errorf("campaign: cell entry %s: torn header", cell)
	}
	if name := p[:nameLen]; string(name) != cell {
		return nil, fmt.Errorf("campaign: cell entry %s: holds cell %q", cell, name)
	}
	count, p, err := entryUvarint(p[nameLen:])
	switch {
	case err != nil:
		return nil, fmt.Errorf("campaign: cell entry %s: torn header", cell)
	case trials < 0 || count != uint64(trials):
		return nil, fmt.Errorf("campaign: cell entry %s: holds %d trials, want %d", cell, count, trials)
	case count > uint64(len(p)):
		return nil, fmt.Errorf("campaign: cell entry %s: %d trials in %d bytes", cell, count, len(p))
	}
	rounds := make([]uint32, count)
	for i := range rounds {
		var r uint64
		if r, p, err = entryUvarint(p); err != nil || r > maxEntryRounds {
			return nil, fmt.Errorf("campaign: cell entry %s: torn or out-of-range trial %d", cell, i)
		}
		rounds[i] = uint32(r)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("campaign: cell entry %s: %d trailing bytes", cell, len(p))
	}
	return rounds, nil
}

// entryUvarint reads one minimally encoded uvarint off the front of p.
func entryUvarint(p []byte) (uint64, []byte, error) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), p[1:], nil // the one-byte common case
	}
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, p, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

// SummarizeCellEntry decodes an entry that must be the named cell's and
// hold exactly trials trials, and summarizes it the way RunSpec
// summarizes a live run, so stats read back from stored bytes match the
// artifact's bit for bit. Torn, foreign or mis-sized bytes are an error.
func SummarizeCellEntry(data []byte, cell string, trials int) (CellStats, error) {
	rounds, err := DecodeCellEntry(data, cell, trials)
	if err != nil {
		return CellStats{}, err
	}
	return summarize(cell, rounds, &rounds), nil // sorts the decoded copy in place
}

// LoadSpec reads a JSON Spec from r, rejecting unknown fields so typos in
// hand-written campaign files fail loudly — among them the retired
// adversaries/ks fields, whose error names the scenario form. Call
// Canonical (or any of the run paths, which do) to validate and
// normalize.
func LoadSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if msg := err.Error(); strings.Contains(msg, `unknown field "adversaries"`) || strings.Contains(msg, `unknown field "ks"`) {
			return Spec{}, fmt.Errorf("campaign: decoding spec: %w (the adversaries/ks form is retired; %s)", err, scenarioFormHint)
		}
		return Spec{}, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	return spec, nil
}

// LoadSpecFile reads a JSON Spec from path ("-" means stdin).
func LoadSpecFile(path string) (Spec, error) {
	if path == "-" {
		return LoadSpec(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: opening spec: %w", err)
	}
	defer f.Close()
	return LoadSpec(f)
}
