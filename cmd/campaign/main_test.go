package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
)

func TestRunSpecFileJSON(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	outPath := filepath.Join(dir, "artifact.json")
	specJSON := `{"name":"smoke","scenarios":[{"adversary":"static-path"}],"ns":[8,16],"trials":2,"seed":1}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", specPath, "-format", "json", "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var o campaign.Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		t.Fatal(err)
	}
	if o.Spec.Name != "smoke" || o.Jobs != 4 || o.Completed != 4 || o.Failed != 0 {
		t.Errorf("artifact wrong: %+v", o)
	}
	// Deterministic cells: the static path takes exactly n−1 rounds.
	if len(o.Cells) != 2 || o.Cells[0].Mean != 7 || o.Cells[1].Mean != 15 {
		t.Errorf("cells wrong: %+v", o.Cells)
	}
}

func TestRunGridFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	err := run([]string{"-adversaries", "static-path,ascending-path", "-ns", "8",
		"-trials", "2", "-seed", "3", "-format", "csv", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static-path/n=8", "ascending-path/n=8"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("CSV missing cell %q:\n%s", want, data)
		}
	}
}

// TestRunScenarioFlags: repeatable -scenario flags drive the v2 schema —
// a bare name plus a parameterized JSON scenario with a k axis.
func TestRunScenarioFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "scen.json")
	err := run([]string{
		"-scenario", "static-path",
		"-scenario", `{"adversary":"k-inner","params":{"k":[2,3]}}`,
		"-ns", "8", "-trials", "2", "-seed", "4", "-format", "json", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var o campaign.Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		t.Fatal(err)
	}
	if o.Spec.Version != campaign.SpecVersion || len(o.Spec.Scenarios) != 3 {
		t.Errorf("artifact spec not canonical: %+v", o.Spec)
	}
	for _, cell := range []string{"static-path/n=8", "k-inner/n=8/k=2", "k-inner/n=8/k=3"} {
		if !bytes.Contains(data, []byte(`"`+cell+`"`)) {
			t.Errorf("artifact missing cell %q", cell)
		}
	}
}

// TestAdversariesFlagsMatchScenarioFlags: the -adversaries/-ks shorthand
// builds the same scenarios as the matching -scenario flags, so the two
// write byte-identical artifacts.
func TestAdversariesFlagsMatchScenarioFlags(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-ns", "8,16", "-trials", "3", "-seed", "5", "-format", "json"}
	short := filepath.Join(dir, "short.json")
	if err := run(append([]string{"-adversaries", "k-leaves,k-inner", "-ks", "2,4", "-out", short}, grid...)); err != nil {
		t.Fatal(err)
	}
	long := filepath.Join(dir, "long.json")
	if err := run(append([]string{
		"-scenario", `{"adversary":"k-leaves","params":{"k":[2,4]}}`,
		"-scenario", `{"adversary":"k-inner","params":{"k":[2,4]}}`,
		"-out", long}, grid...)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(long)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("-adversaries/-ks artifact differs from -scenario artifact:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"k-inner/n=16/k=4"`)) {
		t.Errorf("artifact misses the k axis:\n%s", a)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":        {"-no-such-flag"},
		"unknown adversary":   {"-adversaries", "omniscient"},
		"bad ns":              {"-ns", "eight"},
		"bad ks":              {"-adversaries", "k-leaves", "-ns", "8", "-ks", "two"},
		"k family without ks": {"-adversaries", "k-leaves", "-ns", "8"},
		"unknown format":      {"-format", "yaml"},
		"unknown goal":        {"-goal", "multicast"},
		"missing spec file":   {"-spec", filepath.Join(t.TempDir(), "nope.json")},
		"bad scenario":        {"-scenario", `{"adversary":"omniscient"}`},
		"bad scenario json":   {"-scenario", `{"adversary":`},
		"scenario bad param":  {"-scenario", `{"adversary":"k-leaves","params":{"k":"two"}}`},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}

func TestRunBadSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(specPath, []byte(`{"scenarios":[{"adversary":"random-tree"}],"workerz":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-spec", specPath})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown spec field accepted: %v", err)
	}
}

// TestCacheFlag: a cache-assisted run of a grown grid produces the same
// artifact as a cache-free run.
func TestCacheFlag(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	small := []string{"-adversaries", "random-tree", "-ns", "8", "-trials", "3",
		"-seed", "7", "-format", "json", "-cache", cacheDir}
	if err := run(append(small, "-out", filepath.Join(dir, "small.json"))); err != nil {
		t.Fatal(err)
	}

	grown := []string{"-adversaries", "random-tree", "-ns", "8,16", "-trials", "3",
		"-seed", "7", "-format", "json"}
	warmOut := filepath.Join(dir, "warm.json")
	coldOut := filepath.Join(dir, "cold.json")
	if err := run(append(grown, "-cache", cacheDir, "-out", warmOut)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(grown, "-out", coldOut)); err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmOut)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("cache-assisted artifact differs from cache-free artifact")
	}
}

func TestParseHelpers(t *testing.T) {
	got, err := parseInts(" 8, 16 ,32")
	if err != nil || !reflect.DeepEqual(got, []int{8, 16, 32}) {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("8,x"); err == nil {
		t.Error("parseInts accepted garbage")
	}
	if got := splitNames(" a ,, b "); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("splitNames = %v", got)
	}
}

// TestJoinFlag runs the CLI as a one-shot cluster coordinator on an
// ephemeral port: the artifact must be byte-identical to a plain local
// run of the same spec, with or without a worker actually joining.
func TestJoinFlag(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	specJSON := `{"name":"joinsmoke","scenarios":[{"adversary":"static-path"},{"adversary":"random-tree"}],"ns":[8,16],"trials":3,"seed":7}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	localOut := filepath.Join(dir, "local.json")
	if err := run([]string{"-spec", specPath, "-format", "json", "-out", localOut}); err != nil {
		t.Fatal(err)
	}
	joinOut := filepath.Join(dir, "join.json")
	if err := run([]string{"-spec", specPath, "-format", "json", "-out", joinOut, "-join", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	local, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := os.ReadFile(joinOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, joined) {
		t.Errorf("-join artifact differs from local run:\n%s\nvs\n%s", joined, local)
	}
	// A busy or invalid address is a startup error, not a hang.
	if err := run([]string{"-spec", specPath, "-join", "256.256.256.256:1"}); err == nil {
		t.Error("run with bogus -join address succeeded")
	}
}

func TestLeaseTTLRequiresJoin(t *testing.T) {
	if err := run([]string{"-adversaries", "static-path", "-ns", "8", "-trials", "1", "-lease-ttl", "5s"}); err == nil {
		t.Error("run with -lease-ttl but no -join succeeded")
	}
}
