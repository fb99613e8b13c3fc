package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/tree"
)

// This file implements the scenario layer of spec schema v2 (DESIGN.md
// §3c): an open registry of self-describing adversary families, and the
// Scenario type that selects a family with a JSON-serializable parameter
// assignment. Everything a family declares — its name, its parameters
// with kinds and defaults, its per-n feasibility — is consumed uniformly
// by spec validation, grid compilation, cache-key derivation, spec
// hashing, and campaignd, so a family registered by downstream code (via
// the root package's RegisterAdversary) participates in all of them
// without touching internals.

// Parameter kinds a Family may declare. Values are validated against the
// declared kind when a scenario is canonicalized.
const (
	// IntParam accepts JSON integers (numbers with no fractional part).
	IntParam = "int"
	// FloatParam accepts any JSON number.
	FloatParam = "float"
	// StringParam accepts JSON strings.
	StringParam = "string"
	// BoolParam accepts JSON booleans.
	BoolParam = "bool"
)

// Param declares one parameter of an adversary family: its JSON key, its
// kind, and an optional default used when a scenario omits it. A Param
// with a nil Default is required. Any param may be given a JSON array in
// a scenario; the list is an axis and expands into one ground scenario
// per element (the cross product, when several params carry lists).
type Param struct {
	Name    string // JSON key inside Scenario.Params
	Kind    string // IntParam, FloatParam, StringParam, or BoolParam
	Default any    // value when omitted; nil makes the param required
	Doc     string // one-line description, surfaced by tooling
}

// Params is one concrete parameter assignment of a ground scenario. The
// values are canonicalized JSON scalars: every number is a float64, so
// assignments built in Go and assignments decoded from JSON compare (and
// hash) identically.
type Params map[string]any

// Int returns the named parameter as an int (0 when absent).
func (p Params) Int(name string) int {
	f, _ := p[name].(float64)
	return int(f)
}

// Float returns the named parameter as a float64 (0 when absent).
func (p Params) Float(name string) float64 {
	f, _ := p[name].(float64)
	return f
}

// String returns the named parameter as a string ("" when absent).
func (p Params) String(name string) string {
	s, _ := p[name].(string)
	return s
}

// Bool returns the named parameter as a bool (false when absent).
func (p Params) Bool(name string) bool {
	b, _ := p[name].(bool)
	return b
}

// Family is one self-describing adversary family in the open registry.
// The campaign layer never special-cases a family: validation, axis
// expansion, feasibility filtering, cache keys, and construction all flow
// from this declaration alone, which is what lets downstream code plug
// custom families into campaigns, caching, and campaignd.
type Family struct {
	// Name is the registry key scenarios reference. Lowercase
	// kebab-case by convention.
	Name string
	// Doc is a one-line description surfaced by tooling.
	Doc string
	// Params declares the family's parameters in display order (the
	// order they appear in cell names).
	Params []Param
	// Portfolio marks the members of the standard experiment suite
	// (experiment.Portfolio): the parameterless baseline adversaries the
	// paper-reproduction tables sweep. It is reserved for built-ins —
	// Register rejects user families that set it, because a grown
	// portfolio would reshuffle the E1/E2/E7 tables and their random
	// streams.
	Portfolio bool
	// Check, when non-nil, validates a ground parameter assignment at
	// spec-validation time (before any job runs), so campaignd can
	// reject a bad scenario with a 400 instead of failing jobs.
	Check func(p Params) error
	// Feasible, when non-nil, reports whether the assignment is runnable
	// at n; infeasible grid points are skipped, mirroring the k > n−1
	// rule of the restricted families.
	Feasible func(n int, p Params) bool
	// NewReusable constructs the family's adversary (required). The pool
	// builds one per (worker, cell) and Resets it to each trial's
	// source (DESIGN.md §3d), so per-n scratch persists across
	// trials; after Reset it must behave exactly as a freshly built one —
	// same draws, same trees — because artifacts must not depend on which
	// trials shared an adversary. It must return an error — never panic —
	// on bad inputs: this path is reachable from user input through
	// campaign specs and campaignd requests.
	NewReusable func(n int, p Params) (ReusableAdversary, error)
}

// Scenario selects one adversary family with a parameter assignment for
// a campaign grid. Params maps the family's declared parameter names to
// JSON scalars, or to arrays of scalars: an array is an axis and expands
// into one scenario per element (arrays on several params expand to
// their cross product). Omitted params take their declared defaults.
type Scenario struct {
	Adversary string         `json:"adversary"`
	Params    map[string]any `json:"params,omitempty"`
}

// String renders the scenario compactly for error messages:
// name{"k":2} or just the name when there are no params.
func (sc Scenario) String() string {
	if len(sc.Params) == 0 {
		return sc.Adversary
	}
	data, err := json.Marshal(sc.Params)
	if err != nil {
		return sc.Adversary
	}
	return sc.Adversary + string(data)
}

// registry is the process-wide family table. Built-ins are installed by
// init; Register appends. Order is canonical: it fixes Families(),
// Adversaries(), and the experiment portfolio's order.
var (
	regMu     sync.RWMutex
	regOrder  []string
	regByName = make(map[string]Family)
)

func init() {
	for _, f := range append(builtinFamilies(), searchFamilies()...) {
		if err := register(f, true); err != nil {
			panic(err) // built-ins are statically correct
		}
	}
}

// Register adds an adversary family to the open registry, making it
// addressable from campaign specs, cmd/campaign and cmd/sweep flags, and
// campaignd submissions — including their cache and resume paths. Names
// are unique; re-registering one is an error, as is setting Portfolio
// (reserved for built-ins). Safe for concurrent use. The root
// package re-exports this as RegisterAdversary.
func Register(f Family) error { return register(f, false) }

func register(f Family, builtin bool) error {
	if f.Name == "" {
		return fmt.Errorf("campaign: registering adversary family with empty name")
	}
	if f.Portfolio && !builtin {
		return fmt.Errorf("campaign: family %q: Portfolio is reserved for the built-in experiment suite", f.Name)
	}
	if f.NewReusable == nil {
		return fmt.Errorf("campaign: adversary family %q has no constructor", f.Name)
	}
	// Copy the params so normalizing defaults below never mutates the
	// caller's slice.
	f.Params = append([]Param(nil), f.Params...)
	seen := make(map[string]bool, len(f.Params))
	for i, p := range f.Params {
		if p.Name == "" {
			return fmt.Errorf("campaign: family %q declares a param with no name", f.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("campaign: family %q declares param %q twice", f.Name, p.Name)
		}
		seen[p.Name] = true
		switch p.Kind {
		case IntParam, FloatParam, StringParam, BoolParam:
		default:
			return fmt.Errorf("campaign: family %q param %q has unknown kind %q", f.Name, p.Name, p.Kind)
		}
		if p.Default != nil {
			norm, err := normalizeScalar(p.Default, p.Kind)
			if err != nil {
				return fmt.Errorf("campaign: family %q param %q default: %w", f.Name, p.Name, err)
			}
			// Store the canonical form so Families() exposes defaults
			// under the same invariant as Params values (numbers are
			// float64) and expansion can use them verbatim.
			f.Params[i].Default = norm
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[f.Name]; dup {
		return fmt.Errorf("campaign: adversary family %q already registered", f.Name)
	}
	regByName[f.Name] = f
	regOrder = append(regOrder, f.Name)
	return nil
}

// Families returns every registered adversary family in canonical order:
// built-ins first, then user registrations in registration order.
func Families() []Family {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Family, len(regOrder))
	for i, name := range regOrder {
		out[i] = regByName[name]
	}
	return out
}

// Adversaries returns the registered family names in canonical order.
func Adversaries() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

func familyByName(name string) (Family, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := regByName[name]
	return f, ok
}

// ParseScenario parses a command-line scenario argument: either a bare
// family name ("random-tree") or a JSON object
// ({"adversary":"k-leaves","params":{"k":[2,4]}}). Used by cmd/campaign
// -scenario and cmd/sweep -scenario. Exactly one scenario is accepted:
// trailing non-whitespace after the JSON object is an error, so a shell
// quoting slip that crams two scenarios into one argument fails loudly
// instead of silently dropping everything after the first object.
func ParseScenario(s string) (Scenario, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Scenario{}, fmt.Errorf("campaign: empty scenario")
	}
	if !strings.HasPrefix(s, "{") {
		return Scenario{Adversary: s}, nil
	}
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("campaign: parsing scenario %q: %w", s, err)
	}
	// json.Decoder.Decode returns after one value; anything left over
	// (another object, a stray token) would otherwise be lost.
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("campaign: scenario %q has trailing data after the JSON object (one scenario per -scenario flag)", s)
	}
	return sc, nil
}

// ScenarioFlag is a flag.Value accumulating repeated -scenario
// command-line arguments, each in ParseScenario's grammar. Shared by
// cmd/campaign and cmd/sweep so the two binaries cannot drift.
type ScenarioFlag []Scenario

// String renders the accumulated scenarios for flag help.
func (f *ScenarioFlag) String() string {
	parts := make([]string, len(*f))
	for i, sc := range *f {
		parts[i] = sc.String()
	}
	return strings.Join(parts, " ")
}

// Set implements flag.Value.
func (f *ScenarioFlag) Set(s string) error {
	sc, err := ParseScenario(s)
	if err != nil {
		return err
	}
	*f = append(*f, sc)
	return nil
}

// groundScenario is a fully-resolved grid scenario: one family with every
// param a canonical scalar (axes expanded, defaults filled). Its canon
// string is the identity that cache keys and stream seeds hash.
type groundScenario struct {
	family Family
	params Params
	canon  string // family name + canonical sorted-key params JSON
}

// scenario converts the ground form back to the public Scenario shape
// (nil Params when the family has none, keeping canonical specs minimal).
func (g groundScenario) scenario() Scenario {
	if len(g.params) == 0 {
		return Scenario{Adversary: g.family.Name}
	}
	return Scenario{Adversary: g.family.Name, Params: g.params}
}

// cellName is the human-readable aggregation key of the scenario at n:
// the family name, n, then each declared param in declaration order —
// "k-leaves/n=16/k=2" for the built-in k families.
func (g groundScenario) cellName(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/n=%d", g.family.Name, n)
	for _, p := range g.family.Params {
		fmt.Fprintf(&b, "/%s=%s", p.Name, formatParamValue(g.params[p.Name]))
	}
	return b.String()
}

// feasible reports whether the scenario can run at n.
func (g groundScenario) feasible(n int) bool {
	return g.family.Feasible == nil || g.family.Feasible(n, g.params)
}

func formatParamValue(v any) string {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	}
	return fmt.Sprint(v)
}

// canonicalParams renders the assignment as sorted-key compact JSON —
// the canonical form hashed into cache keys and spec hashes.
func canonicalParams(p Params) string {
	if len(p) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(p[k])
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return b.String()
}

// expandScenario resolves one Scenario into its ground scenarios: looks
// up the family, validates parameter names and kinds, expands axis lists
// into the cross product (in declared-param order, first param
// outermost), fills defaults, and runs the family's Check on every
// ground assignment. Every error names the offending scenario.
func expandScenario(sc Scenario) ([]groundScenario, error) {
	f, ok := familyByName(sc.Adversary)
	if !ok {
		return nil, fmt.Errorf("campaign: scenario %s: unknown adversary (known: %v)", sc, Adversaries())
	}
	declared := make(map[string]bool, len(f.Params))
	for _, p := range f.Params {
		declared[p.Name] = true
	}
	for name := range sc.Params {
		if !declared[name] {
			return nil, fmt.Errorf("campaign: scenario %s: family %q has no param %q", sc, f.Name, name)
		}
	}
	// Per declared param, the list of canonical values it contributes to
	// the cross product (length 1 unless the scenario gave an axis list).
	axes := make([][]any, len(f.Params))
	for i, p := range f.Params {
		raw, given := sc.Params[p.Name]
		if !given {
			if p.Default == nil {
				return nil, fmt.Errorf("campaign: scenario %s: missing required param %q (%s)", sc, p.Name, p.Kind)
			}
			// Defaults were normalized at registration time.
			axes[i] = []any{p.Default}
			continue
		}
		vals, err := normalizeValues(raw, p.Kind)
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %s: param %q: %w", sc, p.Name, err)
		}
		axes[i] = vals
	}
	grounds := []groundScenario{{family: f, params: Params{}}}
	for i, p := range f.Params {
		next := make([]groundScenario, 0, len(grounds)*len(axes[i]))
		for _, g := range grounds {
			for _, v := range axes[i] {
				np := make(Params, len(g.params)+1)
				for k, x := range g.params {
					np[k] = x
				}
				np[p.Name] = v
				next = append(next, groundScenario{family: f, params: np})
			}
		}
		grounds = next
	}
	for i := range grounds {
		if len(grounds[i].params) == 0 {
			grounds[i].params = nil
		}
		grounds[i].canon = grounds[i].family.Name + canonicalParams(grounds[i].params)
		if f.Check != nil {
			if err := f.Check(grounds[i].params); err != nil {
				return nil, fmt.Errorf("campaign: scenario %s: %w", grounds[i].scenario(), err)
			}
		}
	}
	return grounds, nil
}

// GroundScenarios expands sc — axis lists crossed, defaults filled,
// values canonicalized, the family's Check run — into its ground
// scenarios, exactly as spec compilation would. It is the exported face
// of expandScenario for meta-campaign layers (internal/evolve) that
// build and validate candidate scenarios against the same rules.
func GroundScenarios(sc Scenario) ([]Scenario, error) {
	grounds, err := expandScenario(sc)
	if err != nil {
		return nil, err
	}
	out := make([]Scenario, len(grounds))
	for i, g := range grounds {
		out[i] = g.scenario()
	}
	return out, nil
}

// CellName returns the display key ("k-leaves/n=16/k=2") under which
// RunSpec aggregates the scenario's grid cell at n. The scenario must be
// ground — expanding to exactly one parameter assignment — since an axis
// list names many cells.
func CellName(sc Scenario, n int) (string, error) {
	grounds, err := expandScenario(sc)
	if err != nil {
		return "", err
	}
	if len(grounds) != 1 {
		return "", fmt.Errorf("campaign: scenario %s expands to %d grid cells; CellName needs a ground scenario", sc, len(grounds))
	}
	return grounds[0].cellName(n), nil
}

// normalizeValues canonicalizes a scenario param value: a scalar becomes
// a one-element slice, a list (axis) becomes its normalized elements.
func normalizeValues(raw any, kind string) ([]any, error) {
	rv := reflect.ValueOf(raw)
	if raw != nil && (rv.Kind() == reflect.Slice || rv.Kind() == reflect.Array) {
		if rv.Len() == 0 {
			return nil, fmt.Errorf("empty axis list")
		}
		out := make([]any, rv.Len())
		for i := range out {
			v, err := normalizeScalar(rv.Index(i).Interface(), kind)
			if err != nil {
				return nil, fmt.Errorf("axis element %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}
	v, err := normalizeScalar(raw, kind)
	if err != nil {
		return nil, err
	}
	return []any{v}, nil
}

// normalizeScalar converts a JSON- or Go-supplied scalar to canonical
// form (numbers → float64) and checks it against the declared kind.
func normalizeScalar(raw any, kind string) (any, error) {
	switch kind {
	case IntParam, FloatParam:
		f, ok := toFloat(raw)
		if !ok {
			return nil, fmt.Errorf("want %s, got %T", kind, raw)
		}
		if kind == IntParam && f != math.Trunc(f) {
			return nil, fmt.Errorf("want int, got %v", f)
		}
		return f, nil
	case StringParam:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", raw)
		}
		if err := checkStringParamValue(s); err != nil {
			return nil, err
		}
		return s, nil
	case BoolParam:
		b, ok := raw.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", raw)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown param kind %q", kind)
}

// checkStringParamValue rejects string parameter values that would
// corrupt the derived plain-text identities they are embedded in: cell
// display keys ("family/n=8/mode=greedy" — '/' and '=' are its
// separators), CSV artifact rows (','), and the line-oriented stream
// JSONL and progress output (control characters, including newlines).
// Enforced in normalizeScalar so both registration-time defaults and
// scenario values pass through it; canonical JSON identities were never
// at risk, but the human-readable artifacts are part of the byte-identity
// contract too.
func checkStringParamValue(s string) error {
	for _, r := range s {
		switch {
		case r == '/' || r == '=' || r == ',':
			return fmt.Errorf("string value %q contains %q (reserved as a cell-key/CSV separator)", s, r)
		case r < 0x20 || r == 0x7f:
			return fmt.Errorf("string value %q contains a control character (%q)", s, r)
		}
	}
	return nil
}

func toFloat(raw any) (float64, bool) {
	switch x := raw.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int8:
		return float64(x), true
	case int16:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint8:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// kParam is the shared parameter declaration of the restricted families.
func kParam(doc string) []Param {
	return []Param{{Name: "k", Kind: IntParam, Doc: doc}}
}

func checkKAtLeastOne(p Params) error {
	if k := p.Int("k"); k < 1 {
		return fmt.Errorf("k must be >= 1, got %d", k)
	}
	return nil
}

func kFeasible(n int, p Params) bool {
	k := p.Int("k")
	return k >= 1 && k <= n-1
}

// builtinFamilies declares the stock registry: the six portfolio
// adversaries of experiment.Portfolio, the Zeiner et al. restricted
// families (k axis), the two-phase oblivious lower-bound schedule as the
// first multi-parameter family, and the stale-information variant of the
// ascending-path heuristic. The search-backed families (beam-search,
// deepest-line) are declared separately in search.go and registered by
// the same init, after these.
func builtinFamilies() []Family {
	return []Family{
		{
			Name: "static-path", Doc: "the identity path every round (t* = n-1)", Portfolio: true,
			NewReusable: func(n int, _ Params) (ReusableAdversary, error) {
				// The whole schedule is one tree, built once per cell.
				return adversary.Static{Tree: tree.IdentityPath(n)}, nil
			},
		},
		{
			Name: "random-tree", Doc: "an independent uniformly random rooted tree per round", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) {
				return adversary.NewRandom(nil), nil
			},
		},
		{
			Name: "random-path", Doc: "an independent uniformly random directed path per round", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) {
				return adversary.NewRandomPath(nil), nil
			},
		},
		{
			Name: "ascending-path", Doc: "adaptive: the path ordered by ascending heard-set size", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) {
				return &adversary.AscendingPath{}, nil
			},
		},
		{
			Name: "block-leader", Doc: "adaptive: freeze the most-spread value each round", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) {
				return &adversary.BlockLeader{}, nil
			},
		},
		{
			Name: "min-gain", Doc: "adaptive: minimum-knowledge-gain arborescence (Chu-Liu/Edmonds)", Portfolio: true,
			NewReusable: func(int, Params) (ReusableAdversary, error) {
				return adversary.MinGain{}, nil
			},
		},
		{
			Name: "k-leaves", Doc: "random trees with exactly k leaves (Zeiner et al., O(kn))",
			Params: kParam("exact number of leaves"), Check: checkKAtLeastOne, Feasible: kFeasible,
			NewReusable: func(n int, p Params) (ReusableAdversary, error) {
				k := p.Int("k")
				if k < 1 || k > n-1 {
					return nil, fmt.Errorf("k-leaves: k=%d infeasible at n=%d (want 1 <= k <= n-1)", k, n)
				}
				return adversary.NewKLeaves(k, nil), nil
			},
		},
		{
			Name: "k-inner", Doc: "random trees with exactly k inner nodes (Zeiner et al., O(kn))",
			Params: kParam("exact number of inner nodes"), Check: checkKAtLeastOne, Feasible: kFeasible,
			NewReusable: func(n int, p Params) (ReusableAdversary, error) {
				k := p.Int("k")
				if k < 1 || k > n-1 {
					return nil, fmt.Errorf("k-inner: k=%d infeasible at n=%d (want 1 <= k <= n-1)", k, n)
				}
				return adversary.NewKInner(k, nil), nil
			},
		},
		{
			Name: "two-phase-path", Doc: "oblivious ZSS-style schedule: identity path, then a prefix-reversed path",
			Params: []Param{
				{Name: "switch_at", Kind: IntParam, Default: 0, Doc: "rounds of phase 1 (0 = n/2)"},
				{Name: "prefix", Kind: IntParam, Default: 0, Doc: "leading vertices reversed in phase 2 (0 = n/2)"},
			},
			Check: func(p Params) error {
				if s := p.Int("switch_at"); s < 0 {
					return fmt.Errorf("switch_at must be >= 0, got %d", s)
				}
				if pre := p.Int("prefix"); pre < 0 {
					return fmt.Errorf("prefix must be >= 0, got %d", pre)
				}
				return nil
			},
			// A prefix longer than the path is meaningless at that n: skip
			// the grid point (the 0 sentinel resolves to n/2, always fine),
			// mirroring the k > n−1 rule of the restricted families.
			Feasible: func(n int, p Params) bool {
				return p.Int("prefix") <= n
			},
			NewReusable: func(n int, p Params) (ReusableAdversary, error) {
				switchAt, prefix := p.Int("switch_at"), p.Int("prefix")
				if switchAt == 0 {
					switchAt = n / 2
				}
				if prefix == 0 {
					prefix = n / 2
				}
				a, err := adversary.NewTwoPhasePath(n, switchAt, prefix)
				if err != nil {
					return nil, err
				}
				return a, nil
			},
		},
		{
			Name: "stale-ascending", Doc: "adaptive on lagged information: the ascending-path rule on heard counts lag rounds old",
			Params: []Param{
				{Name: "lag", Kind: IntParam, Default: 1, Doc: "rounds of information delay (0 = exactly ascending-path)"},
			},
			Check: func(p Params) error {
				if l := p.Int("lag"); l < 0 {
					return fmt.Errorf("lag must be >= 0, got %d", l)
				}
				return nil
			},
			NewReusable: func(_ int, p Params) (ReusableAdversary, error) {
				a, err := adversary.NewStaleAscendingPath(p.Int("lag"))
				if err != nil {
					return nil, err
				}
				return a, nil
			},
		},
	}
}
