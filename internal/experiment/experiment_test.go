package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
)

func TestTableWriteText(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.AddRow(22, 3.5)
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# demo") || !strings.Contains(out, "bb") {
		t.Errorf("text table missing parts: %q", out)
	}
	if !strings.Contains(out, "3.50") {
		t.Errorf("float not rendered with 2 decimals: %q", out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow(1, true)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,true\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestPortfolioRunsEverywhere(t *testing.T) {
	if len(Portfolio()) < 5 {
		t.Fatalf("portfolio too small: %d", len(Portfolio()))
	}
	seen := map[string]bool{}
	for _, na := range Portfolio() {
		if na.Name == "" || na.New == nil {
			t.Errorf("malformed portfolio entry %+v", na)
		}
		if seen[na.Name] {
			t.Errorf("duplicate adversary name %q", na.Name)
		}
		seen[na.Name] = true
	}
}

func TestBestMeasuredWithinSandwich(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		best, name, err := BestMeasured(n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if name == "" {
			t.Errorf("n=%d: empty witness name", n)
		}
		if best < 1 {
			t.Errorf("n=%d: best = %d", n, best)
		}
	}
}

func TestBestMeasuredExactWinsSmallN(t *testing.T) {
	// For n = 4, t*(T4) = 4 > n−1, which only the search strata reach:
	// the witness must be beam-search or the exact solver, and the value
	// must be exactly the game value 4.
	best, name, err := BestMeasured(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Errorf("best at n=4 = %d, want 4 (the exact game value)", best)
	}
	if name != "exact-optimal" && name != "beam-search" {
		t.Errorf("witness = %q, want a search stratum", name)
	}
}

func TestFigure1(t *testing.T) {
	tab, err := Figure1([]int{2, 4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// Column order: n, trivial, nlogn, nloglogn, linear, lower, measured.
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[0])
		measured, _ := strconv.Atoi(row[6])
		upper, _ := strconv.Atoi(row[4])
		if measured > upper {
			t.Errorf("n=%d: measured %d above upper %d", n, measured, upper)
		}
	}
}

func TestTheorem31(t *testing.T) {
	tab, err := Theorem31([]int{2, 3, 4, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "true" {
			t.Errorf("sandwich row not ok: %v", row)
		}
	}
}

func TestStaticPathExperiment(t *testing.T) {
	tab, err := StaticPath([]int{2, 5, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[2][1] != "29" {
		t.Errorf("n=30 static path measured %s, want 29", tab.Rows[2][1])
	}
}

func TestRestricted(t *testing.T) {
	tab, err := Restricted([]int{8, 12}, []int{2, 3, 20}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// k=20 infeasible for both n; 2 ns × 2 feasible ks = 4 rows.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
}

func TestNonsplit(t *testing.T) {
	tab, err := Nonsplit([]int{3, 6}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[2] != "1.00" {
			t.Errorf("nonsplit fraction %s != 1.00 for n=%s", row[2], row[0])
		}
	}
}

func TestExact(t *testing.T) {
	tab, err := Exact(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows for n = 2, 3, 4; exact values 1, 2, 4.
	want := []string{"1", "2", "4"}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[1] != want[i] {
			t.Errorf("row %d: t* = %s, want %s", i, row[1], want[i])
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers pins the campaign rewiring's
// contract at the experiment layer: every randomized experiment renders
// the identical table for worker counts 1, 4, and GOMAXPROCS.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	experiments := map[string]func(opt Option) (*Table, error){
		"figure1": func(opt Option) (*Table, error) {
			return Figure1([]int{2, 4, 8}, 1, opt)
		},
		"restricted": func(opt Option) (*Table, error) {
			return Restricted([]int{8, 12}, []int{2, 3}, 4, 1, opt)
		},
		"nonsplit": func(opt Option) (*Table, error) {
			return Nonsplit([]int{4, 6}, 8, 1, opt)
		},
		"gossip": func(opt Option) (*Table, error) {
			return GossipVsBroadcast([]int{4, 8}, 6, 1, opt)
		},
	}
	for name, run := range experiments {
		t.Run(name, func(t *testing.T) {
			var ref *Table
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				tab, err := run(WithWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = tab
					continue
				}
				if !reflect.DeepEqual(ref, tab) {
					t.Errorf("workers=%d table differs:\n%+v\nvs\n%+v", workers, ref, tab)
				}
			}
		})
	}
}

func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BestMeasured(8, 1, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("BestMeasured err = %v, want context.Canceled", err)
	}
	if _, err := Restricted([]int{8}, []int{2}, 4, 1, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("Restricted err = %v, want context.Canceled", err)
	}
}

func TestCampaignTable(t *testing.T) {
	o, err := campaign.RunSpec(context.Background(), campaign.Spec{
		Name:      "demo",
		Scenarios: []campaign.Scenario{{Adversary: "static-path"}},
		Ns:        []int{8},
		Trials:    3,
		Seed:      1,
	}, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := CampaignTable(o)
	if !strings.Contains(tab.Title, "demo") || len(tab.Rows) != 1 {
		t.Fatalf("campaign table wrong: %+v", tab)
	}
	// Static path on n=8 always takes 7 rounds.
	if tab.Rows[0][0] != "static-path/n=8" || tab.Rows[0][2] != "7.00" {
		t.Errorf("row = %v", tab.Rows[0])
	}
}

func TestGossipVsBroadcast(t *testing.T) {
	tab, err := GossipVsBroadcast([]int{4, 8}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "stalls" {
			t.Errorf("staller did not stall at n=%s", row[0])
		}
	}
}
