package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/server"
	"dyntreecast/internal/store"
)

// warehouseServer runs a small campaign into a fresh warehouse under two
// run ids and serves it the way campaignd -store would.
func warehouseServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "warehouse"))
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{
		Name:      "cli-test",
		Scenarios: []campaign.Scenario{{Adversary: "random-path"}, {Adversary: "random-tree"}},
		Ns:        []int{4, 8},
		Trials:    3,
		Seed:      7,
	}
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: st.Cache()})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"run-a", "run-b"} {
		if _, err := st.IngestOutcome(id, out); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(server.Options{Store: st, Cache: st.Cache()}))
	t.Cleanup(ts.Close)
	return ts
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("results %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

func TestRowsTableWalksAllPages(t *testing.T) {
	ts := warehouseServer(t)
	// Page size 3 over 8 rows forces the cursor walk.
	out := runCLI(t, "-addr", ts.URL, "-limit", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 { // header + 2 campaigns × 4 cells
		t.Fatalf("table has %d lines, want 9:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "CAMPAIGN") {
		t.Errorf("missing header: %q", lines[0])
	}
}

func TestRowsFiltersAndCSV(t *testing.T) {
	ts := warehouseServer(t)
	out := runCLI(t, "-addr", ts.URL, "-campaign", "run-a", "-adversary", "random-tree", "-n", "8", "-format", "csv")
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 { // header + 1 matching cell
		t.Fatalf("csv has %d records, want 2:\n%s", len(records), out)
	}
	if records[1][0] != "run-a" || records[1][2] != "8" {
		t.Errorf("filtered record = %v", records[1])
	}
}

func TestRowsJSON(t *testing.T) {
	ts := warehouseServer(t)
	out := runCLI(t, "-addr", ts.URL, "-campaign", "run-a", "-format", "json")
	var rows []store.Row
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("json mode returned %d rows, want 4", len(rows))
	}
}

func TestCampaignsMode(t *testing.T) {
	ts := warehouseServer(t)
	out := runCLI(t, "-addr", ts.URL, "-campaigns")
	if !strings.Contains(out, "run-a") || !strings.Contains(out, "run-b") {
		t.Errorf("campaign listing missing runs:\n%s", out)
	}
}

func TestDiffModeIdenticalRuns(t *testing.T) {
	ts := warehouseServer(t)
	out := runCLI(t, "-addr", ts.URL, "-diff", "run-a, run-b")
	if !strings.Contains(out, "0 differing, 4 identical") {
		t.Errorf("re-ingested run should diff empty:\n%s", out)
	}
}

func TestCurvesMode(t *testing.T) {
	ts := warehouseServer(t)
	out := runCLI(t, "-addr", ts.URL, "-curves", "-adversary", "random-path", "-format", "csv")
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 2 ns × 2 campaigns measuring each, plus the header.
	if len(records) != 5 {
		t.Fatalf("curves csv has %d records, want 5:\n%s", len(records), out)
	}
	// n=4 is within gamesolver range: the exact column is a number.
	if records[1][2] != "4" || records[1][7] == "-" {
		t.Errorf("n=4 curve point lacks exact value: %v", records[1])
	}
}

func TestCLIErrors(t *testing.T) {
	ts := warehouseServer(t)
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-addr", ts.URL, "-format", "yaml"},
		{"-addr", ts.URL, "-campaigns", "-curves"},
		{"-addr", ts.URL, "-diff", "only-one-id"},
		{"-addr", ts.URL, "-campaign", "no-such-campaign"},
		{"-addr", ts.URL, "stray"},
		{"-addr", "http://127.0.0.1:1", "-campaigns"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("results %v succeeded", args)
		}
	}
}
