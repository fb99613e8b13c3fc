package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// TestRunSmallNs solves the game exactly for n <= 4: t*(T2) = 1,
// t*(T3) = 2, t*(T4) = 4 (the E7 values of EXPERIMENTS.md).
func TestRunSmallNs(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-max-n", "4"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"n=2  t*=1", "n=3  t*=2", "n=4  t*=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSchedule prints an optimal schedule alongside the values.
func TestRunSchedule(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-max-n", "3", "-schedule"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimal schedule for n=3") || !strings.Contains(out, "round 1:") {
		t.Errorf("schedule output incomplete:\n%s", out)
	}
}

// TestRunDeep exercises the anytime deep-line witness search at the
// smallest interesting n; it must certify at least the exact value 2.
func TestRunDeep(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-deep", "3", "-budget", "200"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n=3 budget=200: certified t*(Tn) >= 2") {
		t.Errorf("deep-line output unexpected:\n%s", out)
	}
}

// TestRunParallel pins that worker count never changes printed values.
// elapsedToken matches the wall-clock duration each result line prints
// after its states count — the one field that legitimately differs
// between two runs.
var elapsedToken = regexp.MustCompile(`(states=\d+  )\S+(  )`)

// maskElapsed replaces every line's elapsed duration with a placeholder,
// failing the test if some result line carries none.
func maskElapsed(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, line := range lines {
		if !elapsedToken.MatchString(line) {
			t.Fatalf("line without an elapsed token: %q", line)
		}
		lines[i] = elapsedToken.ReplaceAllString(line, "${1}ELAPSED${2}")
	}
	return strings.Join(lines, "\n")
}

func TestRunParallel(t *testing.T) {
	serial, err := captureStdout(t, func() error { return run([]string{"-max-n", "4", "-parallel", "1"}) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := captureStdout(t, func() error { return run([]string{"-max-n", "4", "-parallel", "4"}) })
	if err != nil {
		t.Fatal(err)
	}
	// t*, bounds, states and status must agree exactly; only the elapsed
	// wall-clock time may differ.
	if maskElapsed(t, serial) != maskElapsed(t, par) {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

// TestRunTable persists solve tables across runs: the first run saves,
// the second loads and answers without re-exploring.
func TestRunTable(t *testing.T) {
	dir := t.TempDir()
	first, err := captureStdout(t, func() error { return run([]string{"-max-n", "4", "-table", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "saved") || !strings.Contains(first, "n4.solvetable") {
		t.Fatalf("first run did not save tables:\n%s", first)
	}
	second, err := captureStdout(t, func() error { return run([]string{"-max-n", "4", "-table", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loaded", "n=4  t*=4"} {
		if !strings.Contains(second, want) {
			t.Errorf("second run missing %q:\n%s", want, second)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":           {"-no-such-flag"},
		"max-n beyond safe zone": {"-max-n", "7"}, // needs -force
	}
	for name, args := range cases {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}
