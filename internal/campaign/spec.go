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
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dyntreecast/internal/campaign/cache"
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
// order. ground and N are the cell's canonical coordinates, kept so
// compile can build the cell's jobs and the remote layer can rebuild the
// cell as a self-contained single-cell spec (see cellJob).
type cellPlan struct {
	Cell   string // display key (groundScenario.cellName)
	Key    string // content address (cellCacheKey)
	ground groundScenario
	N      int // the cell's n coordinate
	Lo, Hi int // job indexes of the cell's trials
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
				ground: g, N: n, Lo: lo, Hi: lo + canon.Trials})
			lo += canon.Trials
		}
	}
	if len(cells) == 0 {
		return nil, Spec{}, fmt.Errorf("campaign: spec compiles to an empty grid (every scenario infeasible?)")
	}
	return cells, canon, nil
}

// Compile validates the spec and expands its planned grid into jobs, one
// per trial, cell after cell. Each cell's random streams are derived
// content-addressed — a root source seeded by a hash of (engine version,
// seed, goal, round budget, canonical scenario, n), split serially in
// trial order — so every cell's results are a pure function of the
// spec's seed and the cell's own coordinates, independent of what else
// the grid contains.
func (s *Spec) Compile() ([]Job, error) {
	jobs, _, _, err := s.compile()
	return jobs, err
}

func (s *Spec) compile() ([]Job, []cellPlan, Spec, error) {
	cells, canon, err := s.plan()
	if err != nil {
		return nil, nil, Spec{}, err
	}
	goal := canon.goal()
	jobs := make([]Job, 0, cells[len(cells)-1].Hi)
	for _, c := range cells {
		root := rng.New(canon.cellSeed(c.ground, c.N))
		run := runCell(c.ground, c.N, c.Cell, goal, canon.MaxRounds)
		for range canon.Trials {
			jobs = append(jobs, Job{Index: len(jobs), Cell: c.Cell, Src: root.Split(), Run: run})
		}
	}
	return jobs, cells, canon, nil
}

// runCell returns the trial closure every job of one grid cell shares:
// the trial runs on the worker's pooled Runner against the cell's
// adversary, built by the family's NewReusable once per (worker, cell)
// and Reset to the trial's source (Arena.AdversaryFor).
func runCell(g groundScenario, n int, cell string, goal core.Goal, maxRounds int) func(context.Context, *rng.Source, *Arena) ([]Measurement, error) {
	build := func() (ReusableAdversary, error) { return g.family.NewReusable(n, g.params) }
	return func(_ context.Context, src *rng.Source, a *Arena) ([]Measurement, error) {
		adv, err := a.AdversaryFor(cell, src, build)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", cell, err)
		}
		a.Runner.MaxRounds = maxRounds
		rounds, err := a.Runner.Run(n, adv, goal)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", cell, err)
		}
		return []Measurement{{Cell: cell, Value: float64(rounds)}}, nil
	}
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

// maxEntryRounds bounds an entry's round counts to the integers a
// float64 measurement holds exactly, so every decoded entry re-encodes to
// the same bytes.
const maxEntryRounds = 1 << 53

// appendEntryHeader appends the header of an entry holding trials trials
// of the named cell.
func appendEntryHeader(b []byte, cell string, trials int) []byte {
	b = append(b, CellEntryFormat)
	b = binary.AppendUvarint(b, uint64(len(cell)))
	b = append(b, cell...)
	return binary.AppendUvarint(b, uint64(trials))
}

// appendEntryTrial appends one trial's round count. The trial must be
// exactly one measurement of the named cell whose value is a
// non-negative integer; anything else cannot be stored.
func appendEntryTrial(b []byte, cell string, ms []Measurement) ([]byte, error) {
	if len(ms) != 1 || ms[0].Cell != cell {
		return b, fmt.Errorf("campaign: cell entry %s: a trial must be one measurement of the cell, got %v", cell, ms)
	}
	if v := ms[0].Value; !(v >= 0 && v <= maxEntryRounds) || math.Signbit(v) || v != math.Trunc(v) {
		return b, fmt.Errorf("campaign: cell entry %s: value %v is not a round count", cell, v)
	}
	return binary.AppendUvarint(b, uint64(ms[0].Value)), nil
}

// appendCellEntry appends to b the entry of the cell named cell whose
// trials are results, in order. The cell store encodes every cell into
// one reused buffer through it.
func appendCellEntry(b []byte, cell string, results []JobResult) ([]byte, error) {
	b = appendEntryHeader(b, cell, len(results))
	for _, r := range results {
		var err error
		if b, err = appendEntryTrial(b, cell, r.Measurements); err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeCellEntry decodes an entry that must be the named cell's and hold
// exactly trials trials, returning one measurement per trial, in trial
// order, in a single allocation. It is the one reader of cell cache
// entries and cluster pushes alike, and it trusts nothing: the format,
// the cell name and the trial count are checked against the caller's
// expectation, and the count against the bytes that remain, before
// anything is allocated; torn input, non-minimal varints, round counts
// beyond maxEntryRounds and trailing bytes are errors.
func DecodeCellEntry(data []byte, cell string, trials int) ([]Measurement, error) {
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
	ms := make([]Measurement, count)
	for i := range ms {
		var rounds uint64
		if rounds, p, err = entryUvarint(p); err != nil || rounds > maxEntryRounds {
			return nil, fmt.Errorf("campaign: cell entry %s: torn or out-of-range trial %d", cell, i)
		}
		ms[i] = Measurement{Cell: cell, Value: float64(rounds)}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("campaign: cell entry %s: %d trailing bytes", cell, len(p))
	}
	return ms, nil
}

// entryUvarint reads one minimally encoded uvarint off the front of p.
func entryUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, p, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

// SummarizeCellEntry decodes an entry that must be the named cell's and
// hold exactly trials trials, and summarizes it the way Aggregate
// summarizes a live run — values pooled in trial order — so stats read
// back from stored bytes match the artifact's bit for bit. Torn, foreign
// or mis-sized bytes are an error.
func SummarizeCellEntry(data []byte, cell string, trials int) (CellStats, error) {
	ms, err := DecodeCellEntry(data, cell, trials)
	if err != nil {
		return CellStats{}, err
	}
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = m.Value
	}
	return summarize(cell, xs), nil
}

// RunSpec compiles and executes the spec on cfg's worker pool and
// aggregates per-cell statistics. Job failures do not abort the campaign:
// they are counted and recorded (in job-index order) in Outcome.Errors.
// The returned error is non-nil only for an invalid spec, a cache backend
// failure, or a cancelled context; on cancellation the partial Outcome is
// still returned.
//
// When cfg.Cache is set, each cell whose content address is present in
// the cache is served from it (its jobs never reach the pool), and each
// cell computed fresh and fully successful is stored back as soon as its
// last trial lands. A cancelled or killed run therefore leaves every
// completed cell in the cache, and rerunning the spec over the same cache
// — at any worker count — executes only the missing cells. Either way the
// aggregated Outcome, and its JSON artifact, is byte-identical to an
// uncached, uninterrupted run, because results are observed in job-index
// order regardless of provenance.
func RunSpec(ctx context.Context, spec Spec, cfg Config) (*Outcome, error) {
	jobs, cells, canon, err := spec.compile()
	if err != nil {
		return nil, err
	}
	mRunsStarted.Inc()
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	results := newResults(len(jobs))
	cacheHits := 0
	var (
		st     *cellStore
		landed func(lo, hi int)
	)
	if cfg.Cache != nil {
		for _, c := range cells {
			trials, ok, err := loadCell(cfg.Cache, c)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for ti := range trials {
				results[c.Lo+ti] = JobResult{Index: c.Lo + ti, Measurements: trials[ti : ti+1 : ti+1]}
			}
			cacheHits += len(trials)
		}
		st = newCellStore(cfg.Cache, cells, results)
		landed = st.landed
	}
	execute := func() error {
		if cfg.Remote != nil {
			return runRemote(ctx, jobs, cells, canon, results, cfg, landed)
		}
		return runLocal(ctx, jobs, results, cfg, landed)
	}
	var runErr error
	if st == nil {
		runErr = execute()
	} else {
		// Execution moves to its own goroutine; this one is the only
		// one that touches the cache, storing cells as they land.
		go func() {
			runErr = execute()
			close(st.queue)
		}()
		if err := st.drain(); err != nil {
			return nil, err
		}
	}
	out := &Outcome{Spec: canon, Jobs: len(jobs), Cells: Aggregate(results), CacheHits: cacheHits}
	for _, r := range results {
		switch {
		case r.Skipped:
		case r.Err != nil:
			out.Failed++
			out.Errors = append(out.Errors, r.Err.Error())
		default:
			out.Completed++
		}
	}
	out.Executed = out.Completed + out.Failed - cacheHits
	return out, runErr
}

// loadCell reads one cell's per-trial measurements from the cache, one
// per trial. A truncated, torn, or foreign entry — or one in another
// entry format — is a miss, never an error: the cell
// is recomputed (the determinism contract makes the recomputation
// byte-identical to what the entry should have held). Backends that can
// delete also heal — the bad bytes are evicted immediately instead of
// being served to readers that never Put (the warehouse query layer)
// until some campaign overwrites them.
func loadCell(c cache.Cache, plan cellPlan) ([]Measurement, bool, error) {
	data, ok, err := c.Get(plan.Key)
	if err != nil {
		return nil, false, fmt.Errorf("campaign: cache get %s: %w", plan.Cell, err)
	}
	if !ok {
		return nil, false, nil
	}
	if trials, err := DecodeCellEntry(data, plan.Cell, plan.Hi-plan.Lo); err == nil {
		return trials, true, nil
	}
	if d, ok := c.(cache.Deleter); ok {
		if err := d.Delete(plan.Key); err != nil {
			return nil, false, fmt.Errorf("campaign: cache delete %s: %w", plan.Cell, err)
		}
	}
	return nil, false, nil
}

// cellStore is RunSpec's persistence path. Execution reports each range
// of jobs whose results have landed; once every trial of a cell has
// landed, the cell is queued to RunSpec's own goroutine, which encodes it
// and Puts it into the cache (drain). Cells are thus stored as they
// finish — a cancelled or killed run leaves every completed cell behind —
// yet the Puts never run on a worker, under a results lock, or on a
// remote delivery path.
type cellStore struct {
	cache   cache.Cache
	cells   []cellPlan
	results []JobResult
	left    []atomic.Int64 // per cell: trials that have not landed yet
	queue   chan int       // cells whose every trial landed; never blocks
}

func newCellStore(c cache.Cache, cells []cellPlan, results []JobResult) *cellStore {
	st := &cellStore{
		cache: c, cells: cells, results: results,
		left:  make([]atomic.Int64, len(cells)),
		queue: make(chan int, len(cells)), // each cell is queued at most once
	}
	for i, c := range cells {
		st.left[i].Store(int64(c.Hi - c.Lo))
	}
	return st
}

// landed records that jobs [lo, hi) hold their final results. The range
// may span several cells: duplicate grid cells share a display key, so
// one batch can cover the end of one and the start of the next.
func (st *cellStore) landed(lo, hi int) {
	if lo >= hi {
		return
	}
	i := sort.Search(len(st.cells), func(i int) bool { return st.cells[i].Hi > lo })
	for ; i < len(st.cells) && st.cells[i].Lo < hi; i++ {
		c := st.cells[i]
		n := min(hi, c.Hi) - max(lo, c.Lo)
		if st.left[i].Add(-int64(n)) == 0 {
			st.queue <- i
		}
	}
}

// drain stores every queued cell whose trials all succeeded until the
// queue is closed, and reports the first encode or Put failure (cells
// queued after it are not stored). Duplicate grid cells share a content
// address; each Put rewrites identical bytes.
func (st *cellStore) drain() error {
	var (
		first error
		buf   []byte // one encoding buffer for every cell
	)
	for i := range st.queue {
		c := st.cells[i]
		trials := st.results[c.Lo:c.Hi]
		if first != nil || slices.ContainsFunc(trials, func(r JobResult) bool { return r.Err != nil }) {
			continue
		}
		var err error
		if buf, err = appendCellEntry(buf[:0], c.Cell, trials); err != nil {
			first = fmt.Errorf("campaign: encoding cache entry %s: %w", c.Cell, err)
		} else if err := st.cache.Put(c.Key, buf); err != nil {
			first = fmt.Errorf("campaign: cache put %s: %w", c.Cell, err)
		}
	}
	return first
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
