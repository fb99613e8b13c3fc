package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
)

// testSpec is the small deterministic grid the store tests run: 2
// families × 2 ns = 4 cells, 3 trials each.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "store-test",
		Scenarios: []campaign.Scenario{{Adversary: "random-path"}, {Adversary: "random-tree"}},
		Ns:        []int{4, 8},
		Trials:    3,
		Seed:      7,
	}
}

// openStore opens a fresh warehouse under a temp dir.
func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "warehouse"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runInto runs spec with the warehouse as its cell cache and ingests it
// under id.
func runInto(t *testing.T, s *Store, id string, spec campaign.Spec) *campaign.Outcome {
	t.Helper()
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: s.Cache()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestOutcome(id, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// allRows drains every page of a query.
func allRows(t *testing.T, s *Store, f Filter) []Row {
	t.Helper()
	var rows []Row
	for {
		page, err := s.Query(f)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, page.Rows...)
		if page.NextCursor == "" {
			return rows
		}
		f.Cursor = page.NextCursor
	}
}

// TestIngestRoundTrip: a campaign run through the warehouse cache
// ingests into rows whose stats match the campaign's own aggregation
// exactly, and whose stored cell bytes are bit-identical to what a plain
// dir cache would hold for the same spec.
func TestIngestRoundTrip(t *testing.T) {
	s := openStore(t)
	spec := testSpec()
	out := runInto(t, s, "run1", spec)

	rows := allRows(t, s, Filter{Campaign: "run1"})
	if len(rows) != len(out.Cells) {
		t.Fatalf("rows = %d, want %d", len(rows), len(out.Cells))
	}
	byCell := make(map[string]Row)
	for _, r := range rows {
		byCell[r.Cell] = r
	}
	for _, c := range out.Cells {
		r, ok := byCell[c.Cell]
		if !ok {
			t.Fatalf("cell %s missing from warehouse", c.Cell)
		}
		got := campaign.CellStats{Cell: r.Cell, Count: r.Count, Mean: r.Mean, StdDev: r.StdDev, Min: r.Min, Max: r.Max, P50: r.P50, P99: r.P99}
		if got != c {
			t.Errorf("cell %s stats drifted:\nstore    %+v\ncampaign %+v", c.Cell, got, c)
		}
		if r.Key == "" {
			t.Errorf("cell %s ingested without a content address", c.Cell)
		}
		if r.Goal != "broadcast" || r.Engine != campaign.EngineVersion {
			t.Errorf("cell %s coordinates: goal=%q engine=%q", c.Cell, r.Goal, r.Engine)
		}
	}

	// Byte round-trip: the warehouse's cell bytes must equal an
	// independent dir-cache run's bytes, address by address.
	plain, err := cache.NewDir(filepath.Join(t.TempDir(), "plain"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: plain}); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, ok, err := plain.Get(j.Key)
		if err != nil || !ok {
			t.Fatalf("plain cache missing %s: ok=%v err=%v", j.Cell, ok, err)
		}
		got, ok, err := s.Cache().Get(j.Key)
		if err != nil || !ok {
			t.Fatalf("warehouse missing %s: ok=%v err=%v", j.Cell, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s bytes differ between warehouse and plain cache", j.Cell)
		}
	}
}

// TestIngestRequiresCellBytes: indexing a spec the warehouse holds no
// bytes for is an error, not a silent empty campaign.
func TestIngestRequiresCellBytes(t *testing.T) {
	s := openStore(t)
	if _, err := s.IngestSpec("empty", testSpec()); err == nil {
		t.Fatal("ingest of a byte-less spec succeeded")
	}
}

// TestIngestSkipsAndHealsCorruptCells: a corrupted cell file at ingest
// time is skipped (not indexed) and deleted.
func TestIngestSkipsAndHealsCorruptCells(t *testing.T) {
	s := openStore(t)
	spec := testSpec()
	if _, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: s.Cache()}); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	bad := jobs[0]
	if err := s.Cache().Put(bad.Key, []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	n, err := s.IngestSpec("run1", spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs)-1 {
		t.Errorf("ingested %d cells, want %d (corrupt one skipped)", n, len(jobs)-1)
	}
	if _, ok, _ := s.Cache().Get(bad.Key); ok {
		t.Error("corrupt cell survived ingest")
	}
	for _, r := range allRows(t, s, Filter{}) {
		if r.Cell == bad.Cell {
			t.Errorf("corrupt cell %s was indexed", bad.Cell)
		}
	}
}

// TestReopenRebuildsIndex is the kill-and-restart guarantee: a reopened
// warehouse serves the same campaigns, rows, and pins from disk alone.
func TestReopenRebuildsIndex(t *testing.T) {
	root := filepath.Join(t.TempDir(), "warehouse")
	s1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	runInto(t, s1, "run1", testSpec())
	if err := s1.Pin("run1", true); err != nil {
		t.Fatal(err)
	}
	before := allRows(t, s1, Filter{})

	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	after := allRows(t, s2, Filter{})
	if !reflect.DeepEqual(before, after) {
		t.Errorf("reopened index differs:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := s2.Pins(); len(got) != 1 || got[0] != "run1" {
		t.Errorf("pins after reopen = %v, want [run1]", got)
	}
	infos := s2.Campaigns()
	if len(infos) != 1 || infos[0].ID != "run1" || !infos[0].Pinned || infos[0].Cells != len(before) {
		t.Errorf("campaign listing after reopen = %+v", infos)
	}
}

// TestReingestReplaces: re-ingesting an id replaces its rows instead of
// accumulating duplicates.
func TestReingestReplaces(t *testing.T) {
	s := openStore(t)
	runInto(t, s, "run1", testSpec())
	small := testSpec()
	small.Ns = []int{4}
	runInto(t, s, "run1", small)
	rows := allRows(t, s, Filter{Campaign: "run1"})
	if len(rows) != 2 {
		t.Errorf("rows after re-ingest = %d, want 2", len(rows))
	}
}

// TestInvalidIDsRejected: ids that could escape the campaigns dir or
// collide with temp files never reach the filesystem.
func TestInvalidIDsRejected(t *testing.T) {
	s := openStore(t)
	for _, id := range []string{"", ".hidden", "../escape", "a/b", "has space", "-flag", string(make([]byte, 200))} {
		if _, err := s.IngestSpec(id, testSpec()); err == nil {
			t.Errorf("IngestSpec(%q) accepted", id)
		}
		if err := s.Pin(id, true); err == nil {
			t.Errorf("Pin(%q) accepted", id)
		}
	}
}

// TestOpenRejectsForeignManifests: garbage or foreign JSON in campaigns/
// fails Open loudly instead of silently skewing the index.
func TestOpenRejectsForeignManifests(t *testing.T) {
	root := filepath.Join(t.TempDir(), "warehouse")
	if _, err := Open(root); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "campaigns", "alien.json")
	for _, data := range []string{"{torn", `{"format":"other/1","id":"x"}`} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(root); err == nil {
			t.Errorf("Open accepted manifest %q", data)
		}
	}
}

// TestBackfillArtifact: a pre-warehouse campaign (JSON artifact + dir
// cache) backfills into the store with bit-identical cell bytes and the
// artifact's campaign name as its id.
func TestBackfillArtifact(t *testing.T) {
	spec := testSpec()
	dir, err := cache.NewDir(filepath.Join(t.TempDir(), "legacy"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: dir})
	if err != nil {
		t.Fatal(err)
	}
	var art bytes.Buffer
	if err := out.WriteJSON(&art); err != nil {
		t.Fatal(err)
	}

	s := openStore(t)
	id, n, err := s.BackfillArtifact("", &art, dir)
	if err != nil {
		t.Fatal(err)
	}
	if id != "store-test" || n != len(out.Cells) {
		t.Fatalf("backfill = (%q, %d), want (store-test, %d)", id, n, len(out.Cells))
	}
	jobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, _, _ := dir.Get(j.Key)
		got, ok, err := s.Cache().Get(j.Key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("cell %s did not round-trip: ok=%v err=%v", j.Cell, ok, err)
		}
	}
	// A torn artifact is an error.
	if _, _, err := s.BackfillArtifact("x", bytes.NewReader([]byte("{torn")), nil); err == nil {
		t.Error("torn artifact accepted")
	}
}

// TestBackfillJSONL: stats-only rows from a JSONL artifact are queryable
// with parsed coordinates and no content address.
func TestBackfillJSONL(t *testing.T) {
	spec := campaign.Spec{
		Name:      "jl",
		Scenarios: []campaign.Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": 2}}},
		Ns:        []int{8},
		Trials:    3,
		Seed:      1,
	}
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	n, err := s.BackfillJSONL("", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out.Cells) {
		t.Fatalf("backfilled %d rows, want %d", n, len(out.Cells))
	}
	rows := allRows(t, s, Filter{Campaign: "jl"})
	if len(rows) != len(out.Cells) {
		t.Fatalf("rows = %d, want %d", len(rows), len(out.Cells))
	}
	for _, r := range rows {
		if r.Key != "" {
			t.Errorf("jsonl row %s carries a content address", r.Cell)
		}
		if r.Adversary != "k-leaves" || r.N != 8 {
			t.Errorf("row %s coordinates not recovered: adversary=%q n=%d", r.Cell, r.Adversary, r.N)
		}
		if _, ok := r.Params["k"]; !ok {
			t.Errorf("row %s lost its k param", r.Cell)
		}
	}
	// Lines naming no campaign need an explicit id.
	if _, err := s.BackfillJSONL("", bytes.NewReader([]byte(`{"cell":"x/n=2","count":1}`+"\n"))); err == nil {
		t.Error("campaign-less jsonl accepted without an id")
	}
	// And an empty stream is an error, not a no-op.
	if _, err := s.BackfillJSONL("empty", bytes.NewReader(nil)); err == nil {
		t.Error("empty jsonl stream accepted")
	}
}

// TestParseCellName covers the coordinate recovery used by JSONL
// backfill.
func TestParseCellName(t *testing.T) {
	adv, n, params := parseCellName("k-leaves/n=16/k=2")
	if adv != "k-leaves" || n != 16 || params["k"] != 2.0 {
		t.Errorf("parseCellName = %q, %d, %v", adv, n, params)
	}
	adv, n, params = parseCellName("random-tree/n=8")
	if adv != "random-tree" || n != 8 || params != nil {
		t.Errorf("parseCellName = %q, %d, %v", adv, n, params)
	}
	_, _, params = parseCellName("fam/n=4/flip=true/name=x/odd")
	if params["flip"] != true || params["name"] != "x" {
		t.Errorf("typed params = %v", params)
	}
}

// TestPinUnpin: unpinning persists too.
func TestPinUnpin(t *testing.T) {
	s := openStore(t)
	if err := s.Pin("a", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("b", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("a", false); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Pins(); len(got) != 1 || got[0] != "b" {
		t.Errorf("pins = %v, want [b]", got)
	}
}

// TestCacheDeleteForwards: the warehouse cache exposes eviction so the
// campaign layer's corruption heal works against a store-backed cache.
func TestCacheDeleteForwards(t *testing.T) {
	s := openStore(t)
	spec := testSpec()
	runInto(t, s, "run", spec)
	jobs, _ := spec.CellJobs()
	d, ok := s.Cache().(cache.Deleter)
	if !ok {
		t.Fatal("warehouse cache is not a Deleter")
	}
	if err := d.Delete(jobs[0].Key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Cache().Get(jobs[0].Key); ok {
		t.Error("delete did not reach the cell store")
	}
}

// TestOpenFailsOnBrokenLayout: a root whose areas are occupied by plain
// files cannot open.
func TestOpenFailsOnBrokenLayout(t *testing.T) {
	// cells is a file.
	root := filepath.Join(t.TempDir(), "w1")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "cells"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root); err == nil {
		t.Error("Open accepted a root whose cells area is a file")
	}
	// campaigns is a file.
	root2 := filepath.Join(t.TempDir(), "w2")
	if err := os.MkdirAll(root2, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root2, "campaigns"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root2); err == nil {
		t.Error("Open accepted a root whose campaigns area is a file")
	}
	// pins.json is torn.
	root3 := filepath.Join(t.TempDir(), "w3")
	if _, err := Open(root3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root3, "pins.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root3); err == nil {
		t.Error("Open accepted a torn pins.json")
	}
}

// TestIngestRejectsInvalidSpec: a spec that does not compile cannot be
// ingested or backfilled.
func TestIngestRejectsInvalidSpec(t *testing.T) {
	s := openStore(t)
	if _, err := s.IngestSpec("bad", campaign.Spec{}); err == nil {
		t.Error("empty spec ingested")
	}
	art := `{"spec":{"scenarios":[{"adversary":"no-such-family"}],"ns":[4],"trials":1}}`
	if _, _, err := s.BackfillArtifact("bad", strings.NewReader(art), cache.NewMemory()); err == nil {
		t.Error("artifact with an unknown family backfilled")
	}
	if _, _, err := s.BackfillArtifact("../bad", strings.NewReader(`{"spec":{}}`), nil); err == nil {
		t.Error("traversal id accepted by backfill")
	}
}

// TestBackfillJSONLRejectsBadIDs: per-line campaign ids are vetted like
// every other id.
func TestBackfillJSONLRejectsBadIDs(t *testing.T) {
	s := openStore(t)
	if _, err := s.BackfillJSONL("", strings.NewReader(`{"campaign":"../x","cell":"f/n=2","count":1}`+"\n")); err == nil {
		t.Error("traversal campaign id accepted from jsonl")
	}
	if _, err := s.BackfillJSONL("../x", strings.NewReader(`{"cell":"f/n=2","count":1}`+"\n")); err == nil {
		t.Error("traversal explicit id accepted")
	}
	if _, err := s.BackfillJSONL("ok", strings.NewReader("{torn\n")); err == nil {
		t.Error("torn jsonl line accepted")
	}
}

// TestSizeErrorsWhenCellAreaVanishes: a destroyed cell area is a loud
// error for Size, GC, and ingest alike.
func TestSizeErrorsWhenCellAreaVanishes(t *testing.T) {
	s := openStore(t)
	if err := os.RemoveAll(filepath.Join(s.Root(), "cells")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Size(); err == nil {
		t.Error("Size on a vanished cell area succeeded")
	}
	if _, err := s.GC(0); err == nil {
		t.Error("GC on a vanished cell area succeeded")
	}
}
