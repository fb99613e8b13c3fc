package campaign

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// TestLegacySpecRejected: the retired adversaries/ks schema — as JSON
// fields or as "version": 1 — is rejected by LoadSpec and Canonical with
// an error that points at the scenario form.
func TestLegacySpecRejected(t *testing.T) {
	legacy := `{"name":"golden","adversaries":["random-tree","k-leaves"],"ks":[2,3],"ns":[8,16],"trials":4,"seed":42}`
	if _, err := LoadSpec(strings.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "scenario form") {
		t.Errorf("LoadSpec(legacy) err = %v, want a pointer to the scenario form", err)
	}
	ksOnly := `{"scenarios":[{"adversary":"k-leaves"}],"ks":[2],"ns":[8],"trials":1,"seed":1}`
	if _, err := LoadSpec(strings.NewReader(ksOnly)); err == nil || !strings.Contains(err.Error(), "scenario form") {
		t.Errorf("LoadSpec(ks) err = %v, want a pointer to the scenario form", err)
	}
	v1, err := LoadSpec(strings.NewReader(`{"version":1,"scenarios":[{"adversary":"random-tree"}],"ns":[8],"trials":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Canonical(); err == nil || !strings.Contains(err.Error(), "scenario form") {
		t.Errorf("Canonical(version 1) err = %v, want a pointer to the scenario form", err)
	}
}

// TestSpecHashPinned pins the identity of one scenario spec, and of one
// of its cells, to the bytes recorded before the retired adversaries/ks
// schema was removed: campaign ids, cache keys and artifacts keep them.
func TestSpecHashPinned(t *testing.T) {
	spec := Spec{
		Name: "pin",
		Scenarios: []Scenario{
			{Adversary: "random-tree"},
			{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
		},
		Ns: []int{8, 16}, Trials: 4, Seed: 7, Goal: "gossip", MaxRounds: 300,
	}
	if got, want := SpecHash(spec), "31d80e82344553e460bfc1c910754f02aa10b4a076cd24eaf792dd6d6e37d714"; got != want {
		t.Errorf("SpecHash = %s, want %s", got, want)
	}
	if got, want := cellKeyFor(t, spec, "k-leaves", 16, 3), "7c04082def111501986e131b518d552bc0cd212ab9c9438431d7ef759f52dce6"; got != want {
		t.Errorf("cell key of k-leaves/n=16/k=3 = %s, want %s", got, want)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	wantScens := []Scenario{
		{Adversary: "random-tree"},
		{Adversary: "k-leaves", Params: map[string]any{"k": float64(2)}},
		{Adversary: "k-leaves", Params: map[string]any{"k": float64(3)}},
	}
	if canon.Version != SpecVersion || !reflect.DeepEqual(canon.Scenarios, wantScens) {
		t.Errorf("canonical spec = %+v, want version %d and scenarios %+v", canon, SpecVersion, wantScens)
	}
}

// TestCanonicalIdempotent: canonicalizing a canonical spec is identity.
func TestCanonicalIdempotent(t *testing.T) {
	spec := detSpec()
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	again, err := canon.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon, again) {
		t.Errorf("canonicalization not idempotent:\n%+v\nvs\n%+v", canon, again)
	}
}

// TestAxisExpansionCrossProduct: several axis-valued params expand to
// their cross product, first declared param outermost.
func TestAxisExpansionCrossProduct(t *testing.T) {
	grounds, err := expandScenario(Scenario{
		Adversary: "two-phase-path",
		Params:    map[string]any{"switch_at": []any{1, 2}, "prefix": []any{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range grounds {
		got = append(got, g.canon)
	}
	want := []string{
		`two-phase-path{"prefix":3,"switch_at":1}`,
		`two-phase-path{"prefix":4,"switch_at":1}`,
		`two-phase-path{"prefix":3,"switch_at":2}`,
		`two-phase-path{"prefix":4,"switch_at":2}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expansion = %v, want %v", got, want)
	}
}

// TestScenarioDefaultsFill: omitted params with defaults are filled into
// the canonical form, so the same grid spelled with and without explicit
// defaults shares identities.
func TestScenarioDefaultsFill(t *testing.T) {
	implicit, err := expandScenario(Scenario{Adversary: "two-phase-path"})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := expandScenario(Scenario{
		Adversary: "two-phase-path",
		Params:    map[string]any{"switch_at": 0, "prefix": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(implicit) != 1 || len(explicit) != 1 || implicit[0].canon != explicit[0].canon {
		t.Errorf("defaults not canonical: %v vs %v", implicit, explicit)
	}
}

// TestTwoPhasePathScenarioRuns: the multi-param built-in family runs
// through a campaign and achieves a plausible broadcast time.
func TestTwoPhasePathScenarioRuns(t *testing.T) {
	spec := Spec{
		Scenarios: []Scenario{{Adversary: "two-phase-path", Params: map[string]any{"switch_at": 4, "prefix": 4}}},
		Ns:        []int{8},
		Trials:    2,
		Seed:      1,
	}
	o, err := RunSpec(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Fatalf("two-phase campaign failed: %v", o.Errors)
	}
	cell, ok := CellByKey(o.Cells, "two-phase-path/n=8/switch_at=4/prefix=4")
	if !ok {
		t.Fatalf("cell missing; cells: %+v", o.Cells)
	}
	// The schedule is deterministic, so every trial agrees; broadcast on
	// n=8 needs at least a handful of path rounds.
	if cell.Mean < 1 || cell.Min != cell.Max {
		t.Errorf("two-phase cell implausible: %+v", cell)
	}
}

// TestRegisterValidation: the registry rejects malformed and duplicate
// families.
func TestRegisterValidation(t *testing.T) {
	cases := map[string]Family{
		"empty name":      {NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"nil constructor": {Name: "t-nil-ctor"},
		"dup family":      {Name: "random-tree", NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"unnamed param": {Name: "t-unnamed", Params: []Param{{Kind: IntParam}},
			NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"dup param": {Name: "t-dup-param", Params: []Param{{Name: "a", Kind: IntParam}, {Name: "a", Kind: IntParam}},
			NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"bad kind": {Name: "t-bad-kind", Params: []Param{{Name: "a", Kind: "complex"}},
			NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"bad default": {Name: "t-bad-default", Params: []Param{{Name: "a", Kind: IntParam, Default: "x"}},
			NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
		"portfolio reserved": {Name: "t-portfolio", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil }},
	}
	for name, f := range cases {
		if err := Register(f); err == nil {
			t.Errorf("%s: Register accepted %+v", name, f)
		}
	}
}

// TestRegisterNormalizesDefaults: Families() exposes registered defaults
// in canonical form (numbers as float64), without mutating the caller's
// Param slice.
func TestRegisterNormalizesDefaults(t *testing.T) {
	params := []Param{{Name: "d", Kind: IntParam, Default: 7}}
	if err := Register(Family{
		Name: "t-defaults", Params: params,
		NewReusable: func(int, Params) (ReusableAdversary, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	f, ok := familyByName("t-defaults")
	if !ok {
		t.Fatal("family not registered")
	}
	if d, isFloat := f.Params[0].Default.(float64); !isFloat || d != 7 {
		t.Errorf("stored default = %#v, want float64(7)", f.Params[0].Default)
	}
	if _, stillInt := params[0].Default.(int); !stillInt {
		t.Errorf("Register mutated the caller's Param slice: %#v", params[0].Default)
	}
}

// TestTwoPhaseInfeasiblePrefixSkipped: a prefix longer than n skips that
// grid point (like k > n−1) instead of failing every trial at runtime.
func TestTwoPhaseInfeasiblePrefixSkipped(t *testing.T) {
	spec := Spec{
		Scenarios: []Scenario{{Adversary: "two-phase-path", Params: map[string]any{"prefix": 16}}},
		Ns:        []int{8, 32},
		Trials:    2,
		Seed:      1,
	}
	o, err := RunSpec(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 || o.Jobs != 2 {
		t.Fatalf("infeasible prefix not skipped: jobs=%d failed=%d errors=%v", o.Jobs, o.Failed, o.Errors)
	}
	if _, ok := CellByKey(o.Cells, "two-phase-path/n=32/switch_at=0/prefix=16"); !ok {
		t.Errorf("feasible cell missing: %+v", o.Cells)
	}
}

// TestInfeasibleScenarioJobsError: a feasible-at-validate-time scenario
// whose construction fails at run time reports the error with the cell
// named, instead of panicking the worker.
func TestConstructionErrorNamesCell(t *testing.T) {
	if err := Register(Family{
		Name: "t-always-errors",
		NewReusable: func(int, Params) (ReusableAdversary, error) {
			return nil, context.DeadlineExceeded // any error will do
		},
	}); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Scenarios: []Scenario{{Adversary: "t-always-errors"}}, Ns: []int{4}, Trials: 2, Seed: 1}
	o, err := RunSpec(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 2 {
		t.Fatalf("failed = %d, want 2", o.Failed)
	}
	if !strings.Contains(o.Errors[0], "t-always-errors/n=4") {
		t.Errorf("construction error not cell-named: %q", o.Errors[0])
	}
}

// TestCustomFamilyFullServiceLayer registers a parameterized custom
// family through the open registry and drives it through the whole
// service stack: campaign run, content-addressed cache, kill and resume
// — with byte-identical artifacts throughout.
func TestCustomFamilyFullServiceLayer(t *testing.T) {
	// A "lazy-star" adversary: plays the star rooted at (round+offset) mod
	// n — broadcast completes in 1 round regardless, keeping the test fast
	// and the expected mean pinned.
	if err := Register(Family{
		Name:   "t-lazy-star",
		Doc:    "star rooted at (round+offset) mod n",
		Params: []Param{{Name: "offset", Kind: IntParam, Default: 0, Doc: "root offset"}},
		NewReusable: func(n int, p Params) (ReusableAdversary, error) {
			offset := p.Int("offset")
			return sourceFree{adversary.Func(func(v core.View) *tree.Tree {
				s, err := tree.Star(v.N(), (v.Round()+offset)%v.N())
				if err != nil {
					return nil
				}
				return s
			})}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	spec := Spec{
		Name:      "custom",
		Scenarios: []Scenario{{Adversary: "t-lazy-star", Params: map[string]any{"offset": []any{0, 1}}}},
		Ns:        []int{6, 9},
		Trials:    3,
		Seed:      7,
	}

	plain, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Failed != 0 || plain.Jobs != 2*2*3 {
		t.Fatalf("custom campaign wrong shape: %+v errors=%v", plain, plain.Errors)
	}
	cell, ok := CellByKey(plain.Cells, "t-lazy-star/n=6/offset=1")
	if !ok || cell.Mean != 1 {
		t.Fatalf("custom cell missing or wrong: %+v ok=%v", cell, ok)
	}
	want := artifactBytes(t, plain)

	// Cache round-trip: cold populates, warm serves everything.
	c := cache.NewMemory()
	if _, err := RunSpec(context.Background(), spec, Config{Cache: c}); err != nil {
		t.Fatal(err)
	}
	warm, err := RunSpec(context.Background(), spec, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Jobs || warm.Executed != 0 {
		t.Errorf("custom family not cacheable: hits/executed = %d/%d", warm.CacheHits, warm.Executed)
	}
	if !bytes.Equal(artifactBytes(t, warm), want) {
		t.Error("cached custom artifact differs")
	}

	// Kill-and-resume: cancel a cache-backed run after its first cell,
	// rerun over the same cache.
	if !bytes.Equal(artifactBytes(t, interruptAndResume(t, spec, 1, 2)), want) {
		t.Error("resumed custom artifact differs")
	}
}

// TestParseScenario covers both accepted command-line forms.
func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario("random-tree")
	if err != nil || sc.Adversary != "random-tree" || sc.Params != nil {
		t.Errorf("bare name: %+v, %v", sc, err)
	}
	sc, err = ParseScenario(`{"adversary":"k-leaves","params":{"k":[2,4]}}`)
	if err != nil || sc.Adversary != "k-leaves" || sc.Params["k"] == nil {
		t.Errorf("JSON form: %+v, %v", sc, err)
	}
	for _, bad := range []string{"", "   ", `{"adversary":"x","bogus":1}`, `{"adversary":`} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) succeeded", bad)
		}
	}
}

// TestParseScenarioRejectsTrailingData pins the fix for the silent-drop
// bug: json.Decoder.Decode returns after one value, so a quoting slip
// like '{"adversary":"k-leaves"} {"adversary":"random-tree"}' used to
// parse clean and lose every scenario after the first.
func TestParseScenarioRejectsTrailingData(t *testing.T) {
	for _, bad := range []string{
		`{"adversary":"k-leaves"} {"adversary":"random-tree"}`,
		`{"adversary":"random-tree"}{"adversary":"random-path"}`,
		`{"adversary":"random-tree"} garbage`,
		`{"adversary":"random-tree"},`,
	} {
		if sc, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) = %+v, want trailing-data error", bad, sc)
		} else if !strings.Contains(err.Error(), "trailing") {
			t.Errorf("ParseScenario(%q) error %q does not name trailing data", bad, err)
		}
	}
	// Trailing whitespace stays fine.
	if _, err := ParseScenario(`{"adversary":"random-tree"}` + "  \n"); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestStringParamSeparatorsRejected pins the identity-corruption fix: a
// string param value carrying a cell-key separator ('/', '='), a CSV
// comma, or a control character would corrupt cell display keys, CSV
// artifact rows, and line-oriented stream readability. Both spec expansion
// and registration-time defaults must reject them.
func TestStringParamSeparatorsRejected(t *testing.T) {
	if err := Register(Family{
		Name:   "string-param-probe",
		Doc:    "test-only family with a string param",
		Params: []Param{{Name: "mode", Kind: StringParam, Default: "greedy", Doc: "probe"}},
		NewReusable: func(n int, _ Params) (ReusableAdversary, error) {
			return adversary.Static{Tree: tree.IdentityPath(n)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"a/b", "a=b", "a,b", "a\nb", "a\tb", "\x00", "del\x7f"} {
		sc := Scenario{Adversary: "string-param-probe", Params: map[string]any{"mode": bad}}
		if _, err := expandScenario(sc); err == nil {
			t.Errorf("expandScenario accepted string param %q", bad)
		}
	}
	// Clean values (including spaces and unicode) still pass, and the
	// cell key they produce stays parseable.
	sc := Scenario{Adversary: "string-param-probe", Params: map[string]any{"mode": "fair game π"}}
	gs, err := expandScenario(sc)
	if err != nil {
		t.Fatalf("clean string param rejected: %v", err)
	}
	if got := gs[0].cellName(8); got != "string-param-probe/n=8/mode=fair game π" {
		t.Errorf("cell name = %q", got)
	}
	// Registration-time defaults go through the same gate.
	err = Register(Family{
		Name:   "string-param-bad-default",
		Doc:    "test-only family with a corrupt default",
		Params: []Param{{Name: "mode", Kind: StringParam, Default: "a/b", Doc: "probe"}},
		NewReusable: func(n int, _ Params) (ReusableAdversary, error) {
			return adversary.Static{Tree: tree.IdentityPath(n)}, nil
		},
	})
	if err == nil {
		t.Error("Register accepted a separator-carrying string default")
	}
}

// TestFamiliesOrderStable: built-ins come first in declaration order, so
// the experiment portfolio never reshuffles.
func TestFamiliesOrderStable(t *testing.T) {
	names := Adversaries()
	wantPrefix := []string{"static-path", "random-tree", "random-path", "ascending-path",
		"block-leader", "min-gain", "k-leaves", "k-inner", "two-phase-path"}
	if len(names) < len(wantPrefix) {
		t.Fatalf("registry too small: %v", names)
	}
	if !reflect.DeepEqual(names[:len(wantPrefix)], wantPrefix) {
		t.Errorf("builtin order = %v, want %v", names[:len(wantPrefix)], wantPrefix)
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"k": float64(3), "rate": float64(0.5), "mode": "greedy", "strict": true}
	if p.Int("k") != 3 || p.Int("missing") != 0 {
		t.Errorf("Int accessor wrong: %v", p)
	}
	if p.Float("rate") != 0.5 || p.Float("missing") != 0 {
		t.Errorf("Float accessor wrong: %v", p)
	}
	if p.String("mode") != "greedy" || p.String("missing") != "" {
		t.Errorf("String accessor wrong: %v", p)
	}
	if !p.Bool("strict") || p.Bool("missing") {
		t.Errorf("Bool accessor wrong: %v", p)
	}
}

func TestScenarioFlag(t *testing.T) {
	var f ScenarioFlag
	if err := f.Set("random-tree"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(`{"adversary":"k-leaves","params":{"k":2}}`); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("{broken"); err == nil {
		t.Error("Set accepted malformed scenario JSON")
	}
	if len(f) != 2 || f[0].Adversary != "random-tree" || f[1].Adversary != "k-leaves" {
		t.Errorf("accumulated flag wrong: %+v", f)
	}
	if s := f.String(); !strings.Contains(s, "random-tree") || !strings.Contains(s, "k-leaves") {
		t.Errorf("String() = %q", s)
	}
}

// TestGroundScenariosAndCellName: the exported expansion helpers used by
// meta-campaign layers follow exactly the spec-compilation rules — axis
// cross products, default filling, canonical values — and CellName names
// the same cell RunSpec aggregates under.
func TestGroundScenariosAndCellName(t *testing.T) {
	grounds, err := GroundScenarios(Scenario{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grounds) != 2 {
		t.Fatalf("axis expanded to %d grounds, want 2: %v", len(grounds), grounds)
	}
	if k, ok := grounds[0].Params["k"].(float64); !ok || k != 2 {
		t.Errorf("ground param not canonicalized: %#v", grounds[0].Params["k"])
	}
	name, err := CellName(grounds[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	if name != "k-leaves/n=16/k=2" {
		t.Errorf("CellName = %q, want k-leaves/n=16/k=2", name)
	}
	if _, err := CellName(Scenario{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 4}}}, 16); err == nil {
		t.Error("CellName accepted an axis scenario")
	}
	if _, err := GroundScenarios(Scenario{Adversary: "no-such-family"}); err == nil {
		t.Error("GroundScenarios accepted an unknown family")
	}
}

// TestFloatBoolParamCanonicalization: float and bool params — exercised
// by no built-in family — normalize, render, and expand like the int and
// string kinds.
func TestFloatBoolParamCanonicalization(t *testing.T) {
	if err := Register(Family{
		Name: "t-knobs",
		Params: []Param{
			{Name: "rate", Kind: FloatParam, Default: 1.0, Doc: "a float knob"},
			{Name: "flip", Kind: BoolParam, Default: false, Doc: "a bool knob"},
		},
		NewReusable: func(n int, p Params) (ReusableAdversary, error) {
			return sourceFree{adversary.Func(func(v core.View) *tree.Tree {
				s, err := tree.Star(v.N(), 0)
				if err != nil {
					return nil
				}
				return s
			})}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	// int-typed Go values reach float params through toFloat; fractional
	// floats and bools render into the cell key verbatim.
	grounds, err := GroundScenarios(Scenario{Adversary: "t-knobs",
		Params: map[string]any{"rate": []any{3, 2.5}, "flip": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grounds) != 2 {
		t.Fatalf("expanded to %d grounds, want 2", len(grounds))
	}
	whole, err := CellName(grounds[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if whole != "t-knobs/n=4/rate=3/flip=true" {
		t.Errorf("CellName = %q, want t-knobs/n=4/rate=3/flip=true", whole)
	}
	frac, err := CellName(grounds[1], 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac != "t-knobs/n=4/rate=2.5/flip=true" {
		t.Errorf("CellName = %q, want t-knobs/n=4/rate=2.5/flip=true", frac)
	}

	// Kind mismatches are rejected for both new kinds.
	for _, bad := range []map[string]any{
		{"rate": "fast"},
		{"flip": 1},
	} {
		if _, err := GroundScenarios(Scenario{Adversary: "t-knobs", Params: bad}); err == nil {
			t.Errorf("params %v accepted, want kind error", bad)
		}
	}
}

// sourceFree makes a source-free test adversary reusable: Reset is a
// no-op because it derives every tree from the view.
type sourceFree struct{ core.Adversary }

func (sourceFree) Reset(*rng.Source) {}
