package consensus

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gossip"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestFloodMinDecidesGlobalMin(t *testing.T) {
	tests := []struct {
		name      string
		proposals []int
		want      int
	}{
		{"distinct", []int{5, 3, 9, 7}, 3},
		{"duplicates", []int{2, 2, 2}, 2},
		{"minAtEnd", []int{9, 8, 7, 1}, 1},
		{"negative", []int{0, -4, 3}, -4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := rng.New(1)
			res, err := FloodMin(tt.proposals, adversary.NewRandom(src))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatal("not terminated")
			}
			if res.Decision != tt.want {
				t.Errorf("Decision = %d, want %d", res.Decision, tt.want)
			}
			if res.FirstDecision < 1 || res.Rounds < res.FirstDecision {
				t.Errorf("decision rounds inconsistent: first=%d last=%d",
					res.FirstDecision, res.Rounds)
			}
		})
	}
}

func TestFloodMinSingleProcess(t *testing.T) {
	res, err := FloodMin([]int{42}, adversary.Static{Tree: tree.MustNew([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Decision != 42 || res.Rounds != 0 {
		t.Errorf("n=1 result: %+v", res)
	}
}

func TestFloodMinEmptyProposals(t *testing.T) {
	if _, err := FloodMin(nil, &adversary.AscendingPath{}); !errors.Is(err, ErrNoProposals) {
		t.Fatalf("err = %v, want ErrNoProposals", err)
	}
}

func TestFloodMinStallsUnderAdaptiveAdversary(t *testing.T) {
	// The gossip staller prevents FloodMin termination forever: the
	// consensus impossibility face of the model.
	_, err := FloodMin([]int{3, 1, 4}, gossip.Staller{}, core.WithMaxRounds(100))
	if !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestFloodMinValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(10)
		proposals := make([]int, n)
		present := map[int]bool{}
		for i := range proposals {
			proposals[i] = src.Intn(100)
			present[proposals[i]] = true
		}
		// An explicit budget: at n = 2 the default n²+1 = 5 rounds are
		// missed whenever all five random trees point the same way.
		res, err := FloodMin(proposals, adversary.NewRandom(src), core.WithMaxRounds(64*n*n))
		if err != nil || !res.Terminated {
			return false
		}
		// Validity: the decision is someone's proposal; and it is the min.
		if !present[res.Decision] {
			return false
		}
		for _, p := range proposals {
			if p < res.Decision {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestEagerFloodMinFullQuorumIsSafe(t *testing.T) {
	// quorum = n is exactly FloodMin: always agreement.
	src := rng.New(2)
	proposals := []int{4, 0, 9, 2, 6}
	res, err := EagerFloodMin(proposals, 5, adversary.NewRandom(src))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement() {
		t.Error("full-quorum eager run disagreed")
	}
	for _, d := range res.Decisions {
		if d != 0 {
			t.Errorf("decisions = %v, want all 0", res.Decisions)
			break
		}
	}
}

func TestEagerFloodMinQuorumValidation(t *testing.T) {
	for _, q := range []int{0, 4} {
		if _, err := EagerFloodMin([]int{1, 2, 3}, q, &adversary.AscendingPath{}); err == nil {
			t.Errorf("quorum %d accepted for n=3", q)
		}
	}
	if _, err := EagerFloodMin(nil, 1, &adversary.AscendingPath{}); !errors.Is(err, ErrNoProposals) {
		t.Errorf("empty proposals: %v", err)
	}
}

func TestEagerFloodMinPartialQuorumDisagrees(t *testing.T) {
	// The identity path with quorum 2: process 1 hears {0,1} and decides
	// 0; process 3 hears {2,3} and decides 2. Agreement violated.
	proposals := []int{0, 1, 2, 3}
	res, err := EagerFloodMin(proposals, 2,
		adversary.Static{Tree: tree.IdentityPath(4)}, core.WithMaxRounds(64))
	// The run may or may not terminate fully (static path stalls gossip),
	// but decisions happen early regardless.
	_ = err
	if res.Agreement() {
		t.Fatalf("expected disagreement, decisions = %v", res.Decisions)
	}
}

func TestFindDisagreement(t *testing.T) {
	sched := FindDisagreement(5, 2, 3, 1)
	if sched == nil {
		t.Fatal("no disagreement witness found for quorum 2, n 5")
	}
	// Replay the witness and confirm it indeed splits deciders.
	proposals := []int{0, 1, 2, 3, 4}
	res, _ := EagerFloodMin(proposals, 2, replay{sched}, core.WithMaxRounds(100))
	if res.Agreement() {
		t.Error("witness schedule did not reproduce the disagreement")
	}
}

func TestFindDisagreementFullQuorumFindsNothing(t *testing.T) {
	if sched := FindDisagreement(4, 4, 2, 1); sched != nil {
		t.Error("found a 'disagreement' for the safe full quorum")
	}
}

func TestAgreementHelper(t *testing.T) {
	if !(EagerResult{Decisions: []int{-1, 2, 2}}).Agreement() {
		t.Error("agreeing run reported disagreement")
	}
	if (EagerResult{Decisions: []int{1, 2}}).Agreement() {
		t.Error("disagreeing run reported agreement")
	}
	if !(EagerResult{Decisions: []int{-1, -1}}).Agreement() {
		t.Error("empty decisions should vacuously agree")
	}
}
