package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/gamesolver"
)

// TestQueryFilters exercises every Filter axis.
func TestQueryFilters(t *testing.T) {
	s := openStore(t)
	runInto(t, s, "run1", testSpec())
	gossip := testSpec()
	gossip.Goal = "gossip"
	runInto(t, s, "run2", gossip)

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 8},
		{"campaign", Filter{Campaign: "run1"}, 4},
		{"adversary", Filter{Adversary: "random-path"}, 4},
		{"goal", Filter{Goal: "gossip"}, 4},
		{"exact n", Filter{N: 8}, 4},
		{"n range", Filter{NMin: 5, NMax: 8}, 4},
		{"nmin excludes all", Filter{NMin: 100}, 0},
		{"compose", Filter{Campaign: "run2", Adversary: "random-tree", N: 4}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := allRows(t, s, tc.f); len(got) != tc.want {
				t.Errorf("rows = %d, want %d", len(got), tc.want)
			}
		})
	}

	if _, err := s.Query(Filter{Campaign: "missing"}); err == nil {
		t.Error("query of an unknown campaign succeeded")
	}
	if _, err := s.Query(Filter{Cursor: "not!base64!"}); err == nil {
		t.Error("malformed cursor accepted")
	}
}

// TestPaginationWalk: a small page size walks every row exactly once, in
// (campaign, cell) order, and the last page has no cursor.
func TestPaginationWalk(t *testing.T) {
	s := openStore(t)
	runInto(t, s, "run1", testSpec())
	runInto(t, s, "run2", testSpec())

	seen := make(map[string]int)
	f := Filter{Limit: 3}
	var prev string
	pages := 0
	for {
		page, err := s.Query(f)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, r := range page.Rows {
			k := r.sortKey()
			seen[k]++
			if k <= prev {
				t.Errorf("row %q out of order (after %q)", k, prev)
			}
			prev = k
		}
		if page.NextCursor == "" {
			break
		}
		f.Cursor = page.NextCursor
	}
	if len(seen) != 8 || pages != 3 {
		t.Errorf("walked %d distinct rows in %d pages, want 8 in 3", len(seen), pages)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("row %q delivered %d times", k, n)
		}
	}
}

// TestCursorStableUnderConcurrentIngest is the pagination satellite: a
// page walk started before an ingest neither duplicates nor skips any
// row that existed when it started, no matter where the new campaign
// sorts.
func TestCursorStableUnderConcurrentIngest(t *testing.T) {
	s := openStore(t)
	runInto(t, s, "mid", testSpec())
	preexisting := allRows(t, s, Filter{})

	// First page, then ingests landing before and after "mid" in cursor
	// order, then the rest of the walk.
	page, err := s.Query(Filter{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := page.Rows
	runInto(t, s, "aaa-before", testSpec())
	runInto(t, s, "zzz-after", testSpec())
	f := Filter{Limit: 1, Cursor: page.NextCursor}
	for f.Cursor != "" {
		page, err := s.Query(f)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, page.Rows...)
		f.Cursor = page.NextCursor
	}

	got := make(map[string]int)
	for _, r := range rows {
		got[r.sortKey()]++
	}
	for _, r := range preexisting {
		if got[r.sortKey()] != 1 {
			t.Errorf("pre-existing row %q delivered %d times, want exactly once", r.sortKey(), got[r.sortKey()])
		}
	}
	// Rows sorting after the walker's position may appear; rows sorting
	// before it must not be double-counted — every delivered row is
	// delivered once.
	for k, n := range got {
		if n != 1 {
			t.Errorf("row %q delivered %d times", k, n)
		}
	}
}

// TestDiffWarmRerunIsEmpty is the acceptance criterion: a campaign
// diffed against its cache-warm re-run elides every cell.
func TestDiffWarmRerunIsEmpty(t *testing.T) {
	s := openStore(t)
	spec := testSpec()
	out := runInto(t, s, "cold", spec)
	warm, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: s.Cache()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 {
		t.Fatalf("re-run executed %d jobs, want 0 (all from warehouse)", warm.Executed)
	}
	if _, err := s.IngestOutcome("warm", warm); err != nil {
		t.Fatal(err)
	}
	d, err := s.Diff("cold", "warm")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 0 || d.Identical != len(out.Cells) {
		t.Errorf("warm diff: %d entries, %d identical; want 0, %d", len(d.Entries), d.Identical, len(out.Cells))
	}
	// Self-diff is empty too.
	if d, _ := s.Diff("cold", "cold"); len(d.Entries) != 0 {
		t.Errorf("self-diff has %d entries", len(d.Entries))
	}
}

// TestDiffDetectsChangesAndAsymmetry: a different seed changes every
// shared cell's content address; grid asymmetry shows up as only_a /
// only_b.
func TestDiffDetectsChangesAndAsymmetry(t *testing.T) {
	s := openStore(t)
	spec := testSpec()
	runInto(t, s, "a", spec)

	other := spec
	other.Seed++
	other.Ns = []int{4, 16} // shares n=4, drops n=8, adds n=16
	runInto(t, s, "b", other)

	d, err := s.Diff("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if d.Identical != 0 {
		t.Errorf("identical = %d, want 0 (seed changed)", d.Identical)
	}
	counts := map[string]int{}
	for _, e := range d.Entries {
		counts[e.Status]++
		switch e.Status {
		case "changed":
			if e.A == nil || e.B == nil || e.A.Key == e.B.Key {
				t.Errorf("changed entry %s malformed", e.Cell)
			}
		case "only_a":
			if e.A == nil || e.B != nil {
				t.Errorf("only_a entry %s malformed", e.Cell)
			}
		case "only_b":
			if e.B == nil || e.A != nil {
				t.Errorf("only_b entry %s malformed", e.Cell)
			}
		}
	}
	if counts["changed"] != 2 || counts["only_a"] != 2 || counts["only_b"] != 2 {
		t.Errorf("diff statuses = %v, want 2 of each", counts)
	}
	if _, err := s.Diff("a", "missing"); err == nil {
		t.Error("diff against an unknown campaign succeeded")
	}
}

// TestDiffStatsOnlyRows: campaigns without content addresses fall back
// to stats equality.
func TestDiffStatsOnlyRows(t *testing.T) {
	s := openStore(t)
	line := `{"campaign":"%s","cell":"fam/n=4","count":2,"mean":%s}` + "\n"
	mustJSONL := func(data string) {
		t.Helper()
		if _, err := s.BackfillJSONL("", strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	mustJSONL(fmt.Sprintf(line, "ja", "3"))
	mustJSONL(fmt.Sprintf(line, "jb", "3"))
	mustJSONL(fmt.Sprintf(line, "jc", "4"))
	if d, _ := s.Diff("ja", "jb"); len(d.Entries) != 0 || d.Identical != 1 {
		t.Errorf("equal stats-only diff = %+v", d)
	}
	if d, _ := s.Diff("ja", "jc"); len(d.Entries) != 1 {
		t.Errorf("unequal stats-only diff = %+v", d)
	}
}

// TestCurves: measured values group into per-scenario curves, joined
// against exact gamesolver values where the solver reaches (broadcast,
// 2 ≤ n ≤ MaxN).
func TestCurves(t *testing.T) {
	s := openStore(t)
	spec := campaign.Spec{
		Scenarios: []campaign.Scenario{{Adversary: "random-path"}},
		Ns:        []int{4, 16},
		Trials:    3,
		Seed:      7,
	}
	runInto(t, s, "c1", spec)
	runInto(t, s, "c2", spec)

	curves := s.Curves(CurveFilter{Adversary: "random-path", Goal: "broadcast"})
	if len(curves) != 1 {
		t.Fatalf("curves = %d, want 1", len(curves))
	}
	c := curves[0]
	if c.Scenario != "random-path" || len(c.Points) != 2 {
		t.Fatalf("curve = %+v", c)
	}
	for _, p := range c.Points {
		if len(p.Measured) != 2 {
			t.Errorf("n=%d measured by %d campaigns, want 2", p.N, len(p.Measured))
		}
		if p.N <= gamesolver.MaxN {
			if p.Exact == nil || *p.Exact <= 0 {
				t.Errorf("n=%d missing its exact value (got %v)", p.N, p.Exact)
			}
		} else if p.Exact != nil {
			t.Errorf("n=%d has an exact value beyond the solver's range", p.N)
		}
	}
	// Restricting to one campaign narrows the measured map.
	curves = s.Curves(CurveFilter{Campaign: "c1"})
	for _, c := range curves {
		for _, p := range c.Points {
			if len(p.Measured) != 1 {
				t.Errorf("campaign-filtered point measured by %d", len(p.Measured))
			}
		}
	}
	// Gossip has no solver: never an exact value.
	g := testSpec()
	g.Goal = "gossip"
	runInto(t, s, "cg", g)
	for _, c := range s.Curves(CurveFilter{Goal: "gossip"}) {
		for _, p := range c.Points {
			if p.Exact != nil {
				t.Errorf("gossip point n=%d has an exact value", p.N)
			}
		}
	}
}

// TestCurvesSolveTables: exact values for n beyond the implicit solve
// ceiling are served from warehoused solve tables — absent table means
// no value (never an hours-long solve inside a query), present table
// answers instantly; and solving a small n persists its table into the
// warehouse for the next process.
func TestCurvesSolveTables(t *testing.T) {
	s := openStore(t)
	spec := campaign.Spec{
		Scenarios: []campaign.Scenario{{Adversary: "random-path"}},
		Ns:        []int{4, 6},
		Trials:    2,
		Seed:      7,
	}
	runInto(t, s, "c1", spec)

	exactAt := func(n int) *int {
		t.Helper()
		curves := s.Curves(CurveFilter{Adversary: "random-path", Goal: "broadcast"})
		if len(curves) != 1 {
			t.Fatalf("curves = %d, want 1", len(curves))
		}
		for _, p := range curves[0].Points {
			if p.N == n {
				return p.Exact
			}
		}
		t.Fatalf("no curve point at n=%d", n)
		return nil
	}

	// No table yet: n=6 has no exact value, and the query returns fast.
	if v := exactAt(6); v != nil {
		t.Fatalf("n=6 exact = %d with no solve table", *v)
	}
	// The n=4 point was solved implicitly AND persisted to the warehouse.
	if v := exactAt(4); v == nil || *v != 4 {
		t.Fatalf("n=4 exact = %v, want 4", v)
	}
	if _, err := os.Stat(s.SolveTablePath(4)); err != nil {
		t.Fatalf("implicit solve did not persist its table: %v", err)
	}

	// Install a (minimal) n=6 table holding just the root state: the
	// canonical form of the identity matrix is the identity matrix, so a
	// single-record table already answers the root query. Value 7 is
	// t*(T6) — what cmd/exact-solver -max-n 6 -force -table writes.
	var root uint64
	for y := 0; y < 6; y++ {
		root |= 1 << (y * 7) // bit y*n+y with n=6
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "dyntreecast-solvetable/1\nn=6 canon=cells/1 states=1\n")
	var rec [9]byte
	binary.LittleEndian.PutUint64(rec[:8], root)
	rec[8] = 7
	buf.Write(rec[:])
	if err := os.WriteFile(s.SolveTablePath(6), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if v := exactAt(6); v == nil || *v != 7 {
		t.Fatalf("n=6 exact = %v with a solve table installed, want 7", v)
	}
}

// TestScenarioLabel: params render sorted and typed.
func TestScenarioLabel(t *testing.T) {
	r := Row{Adversary: "fam", Params: map[string]any{"k": 2.0, "b": true}}
	if got := scenarioLabel(r); got != "fam b=true k=2" {
		t.Errorf("scenarioLabel = %q", got)
	}
	if got := scenarioLabel(Row{Adversary: "plain"}); got != "plain" {
		t.Errorf("scenarioLabel = %q", got)
	}
}
