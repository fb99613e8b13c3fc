// Package store is the results warehouse behind campaignd (DESIGN.md
// §3h): an indexed, garbage-collected, queryable store over completed
// campaigns, the piece that turns one-shot CLI artifact dumps into a
// long-lived multi-tenant result service.
//
// A Store owns one directory with three areas:
//
//	cells/      the cell byte store — the exact content-addressed layout
//	            of internal/campaign/cache's Dir backend, holding each
//	            grid cell's entry (its per-trial round counts, see
//	            campaign.DecodeCellEntry) under its content address. Store.Cache() exposes it as the campaign cell
//	            cache, so a daemon running with -store caches INTO the
//	            warehouse: one directory, one retention budget, and
//	            ingested cells round-trip bit-identically because the
//	            stored bytes ARE the cache entries.
//	campaigns/  one JSON manifest per ingested campaign: its canonical
//	            spec identity plus every cell's coordinates (adversary
//	            family, params, n, goal, engine version), content
//	            address, and aggregated stats.
//	pins.json   the campaign ids exempt from retention GC.
//
// Open rebuilds the in-memory index from the manifests alone, so a
// kill-and-restart loses nothing. Queries (query.go) page through the
// index with stable cursors; retention (gc.go) evicts cell bytes
// least-recently-used-first under a byte budget, never touching pinned
// campaigns or manifests — stats survive eviction, and an evicted cell
// is simply recomputed on the next cache miss, byte-identically, by the
// campaign determinism contract.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
)

// manifestFormat tags manifest files so foreign JSON in campaigns/ is
// rejected instead of misread.
const manifestFormat = "dyntreecast-store/1"

// Ingestion sources recorded in manifests.
const (
	sourceCampaign = "campaign" // ingested from a finished run with cell bytes
	sourceJSONL    = "jsonl"    // backfilled from a JSONL artifact (stats only)
)

// rowStats is the aggregated summary of one cell, the same numbers the
// campaign artifact carries.
type rowStats struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// manifestCell is one cell of a manifest: coordinates, content address,
// and stats.
type manifestCell struct {
	Cell      string         `json:"cell"`
	Key       string         `json:"key,omitempty"` // content address; "" for stats-only rows
	Adversary string         `json:"adversary"`
	Params    map[string]any `json:"params,omitempty"`
	N         int            `json:"n"`
	Trials    int            `json:"trials"`
	Stats     rowStats       `json:"stats"`
}

// manifest is the on-disk record of one ingested campaign.
type manifest struct {
	Format   string         `json:"format"`
	ID       string         `json:"id"`
	Source   string         `json:"source"`
	Engine   string         `json:"engine,omitempty"`
	SpecHash string         `json:"spec_hash,omitempty"`
	Goal     string         `json:"goal"`
	Seed     uint64         `json:"seed,omitempty"`
	Cells    []manifestCell `json:"cells"`
}

// Store is the warehouse handle. Safe for concurrent use: queries take a
// read lock over the index, ingests and pin changes a write lock, and GC
// reads the index but touches only the filesystem.
type Store struct {
	root  string
	cells *cache.Dir

	mu        sync.RWMutex
	manifests map[string]*manifest
	rows      []Row // sorted by (Campaign, Cell) — the cursor order
	pins      map[string]bool

	// exactMu guards the per-store memo of exact gamesolver values
	// served by Curves (query.go). Values for n beyond the implicit
	// solve ceiling come from solve tables under solvetables/.
	exactMu   sync.Mutex
	exactVals map[int]int
}

// Open opens (creating if needed) the warehouse rooted at dir and
// rebuilds the index from its manifests. Unreadable or foreign manifest
// files are an error — a warehouse with half an index would silently
// misanswer queries.
func Open(dir string) (*Store, error) {
	cells, err := cache.NewDir(filepath.Join(dir, "cells"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "campaigns"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating campaigns dir: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "solvetables"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating solvetables dir: %w", err)
	}
	s := &Store{
		root:      dir,
		cells:     cells,
		manifests: make(map[string]*manifest),
		pins:      make(map[string]bool),
		exactVals: make(map[int]int),
	}
	if err := s.loadPins(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, "campaigns"))
	if err != nil {
		return nil, fmt.Errorf("store: reading campaigns dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		m, err := loadManifest(filepath.Join(dir, "campaigns", e.Name()))
		if err != nil {
			return nil, err
		}
		s.manifests[m.ID] = m
	}
	s.reindex()
	if _, err := s.Size(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the warehouse directory.
func (s *Store) Root() string { return s.root }

// SolveTableDir is where the warehouse keeps persisted exact-solver
// tables (gamesolver.SaveTable format), one per n.
func (s *Store) SolveTableDir() string { return filepath.Join(s.root, "solvetables") }

// SolveTablePath names the solve table for one n, matching the layout
// cmd/exact-solver -table writes.
func (s *Store) SolveTablePath(n int) string {
	return filepath.Join(s.SolveTableDir(), fmt.Sprintf("n%d.solvetable", n))
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if m.Format != manifestFormat || m.ID == "" {
		return nil, fmt.Errorf("store: %s is not a %s manifest", path, manifestFormat)
	}
	return &m, nil
}

// saveManifest writes m atomically (temp + rename, like cell entries) so
// a killed writer never leaves a torn manifest for the next Open.
func (s *Store) saveManifest(m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest %s: %w", m.ID, err)
	}
	dir := filepath.Join(s.root, "campaigns")
	tmp, err := os.CreateTemp(dir, "."+m.ID+".tmp*")
	if err != nil {
		return fmt.Errorf("store: manifest temp file: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing manifest %s: %w", m.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing manifest %s: %w", m.ID, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, m.ID+".json")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing manifest %s: %w", m.ID, err)
	}
	return nil
}

// checkID vets a campaign id for use as a manifest filename: it must not
// traverse paths or collide with the hidden temp files.
func checkID(id string) error {
	if id == "" || len(id) > 120 {
		return fmt.Errorf("store: invalid campaign id %q", id)
	}
	for i, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '.' || r == '_' || r == '-') && i > 0:
		default:
			return fmt.Errorf("store: invalid campaign id %q (want [a-zA-Z0-9._-], not starting with punctuation)", id)
		}
	}
	return nil
}

// install registers m in the index (replacing any previous manifest with
// the same id) after persisting it.
func (s *Store) install(m *manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.saveManifest(m); err != nil {
		return err
	}
	s.manifests[m.ID] = m
	s.reindex()
	mIngests.Inc()
	return nil
}

// reindex rebuilds the sorted row slice from the manifests. Must be
// called with mu held.
func (s *Store) reindex() {
	rows := make([]Row, 0, len(s.rows))
	for _, m := range s.manifests {
		for _, c := range m.Cells {
			rows = append(rows, Row{
				Campaign:  m.ID,
				Cell:      c.Cell,
				Adversary: c.Adversary,
				Params:    c.Params,
				N:         c.N,
				Goal:      m.Goal,
				Engine:    m.Engine,
				Key:       c.Key,
				Trials:    c.Trials,
				Count:     c.Stats.Count,
				Mean:      c.Stats.Mean,
				StdDev:    c.Stats.StdDev,
				Min:       c.Stats.Min,
				Max:       c.Stats.Max,
				P50:       c.Stats.P50,
				P99:       c.Stats.P99,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sortKey() < rows[j].sortKey() })
	s.rows = rows
	gRows.Set(float64(len(rows)))
	gCampaigns.Set(float64(len(s.manifests)))
}

// Cache returns the warehouse's cell area as a campaign cell cache:
// wiring it into campaign.Config.Cache (or server.Options.Cache) makes
// every campaign cache into the warehouse. Hits additionally bump the
// entry's recency so retention GC evicts truly cold cells first; the
// bytes themselves are exactly what an unwrapped cache.Dir would serve.
func (s *Store) Cache() cache.Cache { return touching{s.cells} }

// touching decorates the cell dir with LRU recency on read hits.
type touching struct{ dir *cache.Dir }

func (t touching) Get(key string) ([]byte, bool, error) {
	data, ok, err := t.dir.Get(key)
	if ok && err == nil {
		// Best-effort: a failed touch only ages the entry's LRU position.
		t.dir.Touch(key)
	}
	return data, ok, err
}

func (t touching) Put(key string, data []byte) error { return t.dir.Put(key, data) }

// Delete forwards eviction, keeping the campaign layer's corruption heal
// working against a store-backed cache.
func (t touching) Delete(key string) error { return t.dir.Delete(key) }

// IngestOutcome ingests a finished campaign run under id: every grid
// cell of its spec whose bytes are present in the warehouse's cell area
// (they are, when the run cached through Store.Cache) becomes a queryable
// row. Shorthand for IngestSpec on the outcome's canonical spec.
func (s *Store) IngestOutcome(id string, out *campaign.Outcome) (int, error) {
	return s.IngestSpec(id, out.Spec)
}

// IngestSpec indexes the spec's grid cells under campaign id. Cells are
// read back from the cell byte store by content address: per-trial data
// is aggregated into the row's stats, and cells with no stored bytes
// (failed, cancelled, or never cached) are skipped. Returns the number
// of cells ingested; ingesting a spec none of whose cells have bytes is
// an error, not an empty campaign. Re-ingesting an id replaces it.
func (s *Store) IngestSpec(id string, spec campaign.Spec) (int, error) {
	if err := checkID(id); err != nil {
		return 0, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return 0, err
	}
	jobs, err := canon.CellJobs()
	if err != nil {
		return 0, err
	}
	goal := canon.Goal
	if goal == "" {
		goal = "broadcast"
	}
	m := &manifest{
		Format:   manifestFormat,
		ID:       id,
		Source:   sourceCampaign,
		Engine:   campaign.EngineVersion,
		SpecHash: campaign.SpecHash(canon),
		Goal:     goal,
		Seed:     canon.Seed,
	}
	for _, j := range jobs {
		data, ok, err := s.cells.Get(j.Key)
		if err != nil {
			return 0, fmt.Errorf("store: reading cell %s: %w", j.Cell, err)
		}
		if !ok {
			continue
		}
		st, err := campaign.SummarizeCellEntry(data, j.Cell, j.Trials)
		if err != nil {
			// Corrupt bytes under the content address: heal like the
			// campaign layer does and skip the cell.
			s.cells.Delete(j.Key)
			continue
		}
		sc := j.Spec.Scenarios[0]
		m.Cells = append(m.Cells, manifestCell{
			Cell:      j.Cell,
			Key:       j.Key,
			Adversary: sc.Adversary,
			Params:    sc.Params,
			N:         j.Spec.Ns[0],
			Trials:    j.Trials,
			Stats: rowStats{Count: st.Count, Mean: st.Mean, StdDev: st.StdDev,
				Min: st.Min, Max: st.Max, P50: st.P50, P99: st.P99},
		})
	}
	if len(m.Cells) == 0 {
		return 0, fmt.Errorf("store: campaign %s has no cell bytes to ingest (was it run with the store as its cache?)", id)
	}
	if err := s.install(m); err != nil {
		return 0, err
	}
	return len(m.Cells), nil
}

// BackfillArtifact ingests a pre-warehouse campaign from its JSON
// artifact (the cmd/campaign -format json output): the artifact supplies
// the canonical spec, and the cell bytes are copied — verbatim, so they
// round-trip bit-identically — from an existing cell cache (typically a
// cache.Dir the campaign ran against; nil skips the copy and indexes
// whatever bytes the warehouse already holds). An empty id defaults to
// the artifact's campaign name, falling back to a spec-hash-derived id.
func (s *Store) BackfillArtifact(id string, r io.Reader, from cache.Cache) (string, int, error) {
	var art struct {
		Spec campaign.Spec `json:"spec"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&art); err != nil {
		return "", 0, fmt.Errorf("store: decoding artifact: %w", err)
	}
	if id == "" {
		id = art.Spec.Name
	}
	if id == "" {
		id = "art-" + campaign.SpecHash(art.Spec)[:12]
	}
	if err := checkID(id); err != nil {
		return "", 0, err
	}
	if from != nil {
		jobs, err := art.Spec.CellJobs()
		if err != nil {
			return "", 0, err
		}
		for _, j := range jobs {
			data, ok, err := from.Get(j.Key)
			if err != nil {
				return "", 0, fmt.Errorf("store: backfill read %s: %w", j.Cell, err)
			}
			if !ok {
				continue
			}
			if err := s.cells.Put(j.Key, data); err != nil {
				return "", 0, fmt.Errorf("store: backfill copy %s: %w", j.Cell, err)
			}
		}
	}
	n, err := s.IngestSpec(id, art.Spec)
	return id, n, err
}

// jsonlRecord mirrors the campaign JSONL artifact line format.
type jsonlRecord struct {
	Campaign string  `json:"campaign"`
	Seed     uint64  `json:"seed"`
	Goal     string  `json:"goal"`
	Cell     string  `json:"cell"`
	Count    int     `json:"count"`
	Mean     float64 `json:"mean"`
	StdDev   float64 `json:"stddev"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
}

// BackfillJSONL ingests rows from a JSONL artifact stream. JSONL lines
// carry per-cell stats but no per-trial bytes, so the resulting rows are
// stats-only (empty content address): queryable and curve-able, but
// invisible to content-address diffing and exempt from cell GC. With a
// non-empty id every line lands in that campaign; with an empty id lines
// are grouped by their own campaign field (lines without one are an
// error). Returns the number of rows ingested.
func (s *Store) BackfillJSONL(id string, r io.Reader) (int, error) {
	if id != "" {
		if err := checkID(id); err != nil {
			return 0, err
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	byID := make(map[string]*manifest)
	var order []string
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return 0, fmt.Errorf("store: jsonl line %d: %w", line, err)
		}
		mid := id
		if mid == "" {
			mid = rec.Campaign
		}
		if mid == "" {
			return 0, fmt.Errorf("store: jsonl line %d names no campaign (pass an id)", line)
		}
		if err := checkID(mid); err != nil {
			return 0, fmt.Errorf("store: jsonl line %d: %w", line, err)
		}
		m := byID[mid]
		if m == nil {
			goal := rec.Goal
			if goal == "" {
				goal = "broadcast"
			}
			m = &manifest{Format: manifestFormat, ID: mid, Source: sourceJSONL, Goal: goal, Seed: rec.Seed}
			byID[mid] = m
			order = append(order, mid)
		}
		adv, n, params := parseCellName(rec.Cell)
		m.Cells = append(m.Cells, manifestCell{
			Cell:      rec.Cell,
			Adversary: adv,
			Params:    params,
			N:         n,
			Trials:    rec.Count,
			Stats: rowStats{
				Count: rec.Count, Mean: rec.Mean, StdDev: rec.StdDev,
				Min: rec.Min, Max: rec.Max, P50: rec.P50, P99: rec.P99,
			},
		})
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("store: reading jsonl: %w", err)
	}
	total := 0
	for _, mid := range order {
		if err := s.install(byID[mid]); err != nil {
			return total, err
		}
		total += len(byID[mid].Cells)
	}
	if total == 0 {
		return 0, fmt.Errorf("store: jsonl stream holds no rows")
	}
	return total, nil
}

// parseCellName recovers grid coordinates from a cell display key
// ("k-leaves/n=16/k=2"): the family name, the n axis, and the remaining
// params (numbers and bools typed, anything else a string).
func parseCellName(cell string) (adversary string, n int, params map[string]any) {
	parts := strings.Split(cell, "/")
	adversary = parts[0]
	for _, p := range parts[1:] {
		name, value, ok := strings.Cut(p, "=")
		if !ok {
			continue
		}
		if name == "n" {
			n, _ = strconv.Atoi(value)
			continue
		}
		if params == nil {
			params = make(map[string]any)
		}
		switch {
		case value == "true" || value == "false":
			params[name] = value == "true"
		default:
			if f, err := strconv.ParseFloat(value, 64); err == nil {
				params[name] = f
			} else {
				params[name] = value
			}
		}
	}
	return adversary, n, params
}

// CampaignInfo summarizes one ingested campaign for listings.
type CampaignInfo struct {
	ID       string `json:"id"`
	Source   string `json:"source"`
	Engine   string `json:"engine,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	Goal     string `json:"goal"`
	Seed     uint64 `json:"seed,omitempty"`
	Cells    int    `json:"cells"`
	Trials   int    `json:"trials"`
	Pinned   bool   `json:"pinned"`
}

// Campaigns lists the ingested campaigns in id order.
func (s *Store) Campaigns() []CampaignInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]CampaignInfo, 0, len(s.manifests))
	for id, m := range s.manifests {
		info := CampaignInfo{
			ID: id, Source: m.Source, Engine: m.Engine, SpecHash: m.SpecHash,
			Goal: m.Goal, Seed: m.Seed, Cells: len(m.Cells), Pinned: s.pins[id],
		}
		for _, c := range m.Cells {
			info.Trials += c.Trials
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pinsFile is the persisted pin set.
type pinsFile struct {
	Pins []string `json:"pins"`
}

func (s *Store) loadPins() error {
	data, err := os.ReadFile(filepath.Join(s.root, "pins.json"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading pins: %w", err)
	}
	var pf pinsFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("store: pins.json: %w", err)
	}
	for _, id := range pf.Pins {
		s.pins[id] = true
	}
	return nil
}

// Pin marks (or, with on == false, unmarks) a campaign as exempt from
// retention GC and persists the pin set. Pinning an id that has not been
// ingested yet is allowed — the pin takes effect when it is.
func (s *Store) Pin(id string, on bool) error {
	if err := checkID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if on {
		s.pins[id] = true
	} else {
		delete(s.pins, id)
	}
	pf := pinsFile{Pins: make([]string, 0, len(s.pins))}
	for p := range s.pins {
		pf.Pins = append(pf.Pins, p)
	}
	sort.Strings(pf.Pins)
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding pins: %w", err)
	}
	tmp := filepath.Join(s.root, ".pins.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: writing pins: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.root, "pins.json")); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing pins: %w", err)
	}
	return nil
}

// Pins returns the pinned campaign ids, sorted.
func (s *Store) Pins() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pins))
	for id := range s.pins {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
