package trace

import (
	"bytes"
	"strings"
	"testing"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func runWithRecorder(t *testing.T, n int, adv core.Adversary) *Recorder {
	t.Helper()
	var rec Recorder
	if _, err := core.Run(n, adv, core.Broadcast, core.WithObserver(rec.Observer())); err != nil {
		t.Fatal(err)
	}
	return &rec
}

func TestRecorderCapturesRounds(t *testing.T) {
	rec := runWithRecorder(t, 5, adversary.Static{Tree: tree.IdentityPath(5)})
	recs := rec.Records()
	if len(recs) != 4 {
		t.Fatalf("recorded %d rounds, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Round != i+1 {
			t.Errorf("record %d has round %d", i, r.Round)
		}
		if r.Root != 0 || !r.IsPath || r.Leaves != 1 {
			t.Errorf("record %d misdescribes the identity path: %+v", i, r)
		}
		// Identity path adds exactly n−1−i new edges in round i+1? No:
		// each round every informed frontier advances; for the static
		// path the product gains a diagonal band. Just check positivity.
		if r.NewEdges < 1 {
			t.Errorf("record %d: NewEdges = %d", i, r.NewEdges)
		}
	}
	last := recs[len(recs)-1]
	if last.Broadcasters != 1 || last.MaxRow != 5 {
		t.Errorf("final record: %+v", last)
	}
}

func TestVerifyGrowthHoldsOnRealRuns(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		rec := runWithRecorder(t, 9, adversary.NewRandom(src))
		if bad := VerifyGrowth(rec.Records()); bad != nil {
			t.Fatalf("growth lemma violated at %+v", *bad)
		}
	}
}

func TestVerifyGrowthDetectsViolation(t *testing.T) {
	recs := []Record{{Round: 1, NewEdges: 1}, {Round: 2, NewEdges: 0}}
	if bad := VerifyGrowth(recs); bad == nil || bad.Round != 2 {
		t.Errorf("violation not detected: %+v", bad)
	}
	recs[1].Broadcasters = 1 // completing round may add no edge
	if bad := VerifyGrowth(recs); bad != nil {
		t.Errorf("false positive: %+v", *bad)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rec := runWithRecorder(t, 4, adversary.Static{Tree: tree.IdentityPath(4)})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rec.Records()) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(rec.Records()))
	}
	for i := range back {
		if back[i].Round != rec.Records()[i].Round || back[i].Edges != rec.Records()[i].Edges {
			t.Errorf("record %d differs after round trip", i)
		}
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("invalid JSON accepted")
	}
}

func TestWriteTable(t *testing.T) {
	rec := runWithRecorder(t, 4, adversary.Static{Tree: tree.IdentityPath(4)})
	var buf bytes.Buffer
	if err := rec.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "round") || !strings.Contains(out, "+edges") {
		t.Errorf("table missing header: %q", out)
	}
	// n=4 static path: 3 rounds plus one header line.
	if lines := strings.Count(out, "\n"); lines != 3+1 {
		t.Errorf("table has %d lines, want 4", lines)
	}
}

func TestMatrixOfReplaysRun(t *testing.T) {
	// Replaying the recorded trees must reproduce the final engine state.
	src := rng.New(11)
	var rec Recorder
	e := core.NewEngine(6)
	for r := 0; r < 8; r++ {
		tr := tree.Random(6, src)
		e.Step(tr)
		rec.Observer()(e.Round(), tr, e)
	}
	m, err := MatrixOf(6, rec.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(e.Matrix()) {
		t.Error("replayed matrix differs from live engine state")
	}
}

func TestMatrixOfRejectsBadParents(t *testing.T) {
	recs := []Record{{Round: 1, Parents: []int{1, 0}}} // no root
	if _, err := MatrixOf(2, recs); err == nil {
		t.Error("invalid parent array accepted")
	}
}

func TestRecorderReset(t *testing.T) {
	rec := runWithRecorder(t, 4, adversary.Static{Tree: tree.IdentityPath(4)})
	rec.Reset()
	if len(rec.Records()) != 0 {
		t.Error("Reset did not clear records")
	}
}
