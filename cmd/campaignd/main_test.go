package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-workers", "3",
		"-cache", "cc", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:0" || o.workers != 3 || o.cacheDir != "cc" || o.drainTimeout != 5*time.Second {
		t.Errorf("parsed options wrong: %+v", o)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.workers != 0 || o.cacheDir != "" {
		t.Errorf("defaults wrong: %+v", o)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-workers", "many"},
		{"stray-positional"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded", args)
		}
	}
}

func TestBuildCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	o := options{cacheDir: filepath.Join(dir, "cells")}
	srv, st, err := build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("nil server")
	}
	if st != nil {
		t.Fatal("store built without -store")
	}
	if st, err := os.Stat(o.cacheDir); err != nil || !st.IsDir() {
		t.Errorf("%s not created: %v", o.cacheDir, err)
	}
}

func TestParseFlagsClusterAndWorker(t *testing.T) {
	o, err := parseFlags([]string{"-cluster", "-lease-ttl", "10s"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.cluster || o.leaseTTL != 10*time.Second {
		t.Errorf("cluster options wrong: %+v", o)
	}
	o, err = parseFlags([]string{"-worker", "-join", "http://coord:8080", "-poll", "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.worker || o.join != "http://coord:8080" || o.poll != 50*time.Millisecond {
		t.Errorf("worker options wrong: %+v", o)
	}
	// A worker without a coordinator, and a join without worker mode, are
	// both configuration errors.
	if _, err := parseFlags([]string{"-worker"}); err == nil {
		t.Error("parseFlags(-worker) succeeded without -join")
	}
	if _, err := parseFlags([]string{"-join", "http://coord:8080"}); err == nil {
		t.Error("parseFlags(-join) succeeded without -worker")
	}
}

func TestBuildClusterMountsEndpoints(t *testing.T) {
	srv, _, err := build(options{cluster: true, leaseTTL: time.Minute}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/cluster/lease", strings.NewReader(`{"worker":"w","engine":"bogus"}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Errorf("bogus-engine lease on -cluster daemon: status %d, want 409", rec.Code)
	}
}

func TestParseFlagsWorkerRejectsDaemonFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-worker", "-join", "http://c:8080", "-cache", "cells"},
		{"-worker", "-join", "http://c:8080", "-cluster"},
		{"-worker", "-join", "http://c:8080", "-addr", ":9"},
		{"-worker", "-join", "http://c:8080", "-workers", "2"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded; daemon flags must be rejected in worker mode", args)
		}
	}
}

func TestLeaseTTLRequiresCluster(t *testing.T) {
	if _, err := parseFlags([]string{"-lease-ttl", "5s"}); err == nil {
		t.Error("parseFlags(-lease-ttl) succeeded without -cluster")
	}
	if _, err := parseFlags([]string{"-cluster", "-lease-ttl", "5s"}); err != nil {
		t.Errorf("parseFlags(-cluster -lease-ttl): %v", err)
	}
}

func TestShardTrialsRequiresCluster(t *testing.T) {
	if _, err := parseFlags([]string{"-shard-trials", "4"}); err == nil {
		t.Error("parseFlags(-shard-trials) succeeded without -cluster")
	}
	if _, err := parseFlags([]string{"-cluster", "-shard-trials", "-1"}); err == nil {
		t.Error("parseFlags(-shard-trials -1) succeeded")
	}
	o, err := parseFlags([]string{"-cluster", "-shard-trials", "4"})
	if err != nil {
		t.Fatalf("parseFlags(-cluster -shard-trials 4): %v", err)
	}
	if o.shardTrials != 4 {
		t.Errorf("shardTrials = %d, want 4", o.shardTrials)
	}
}

func TestParseFlagsStore(t *testing.T) {
	o, err := parseFlags([]string{"-store", "wh", "-store-budget", "4096", "-store-gc-interval", "10s", "-store-pin", "base, other"})
	if err != nil {
		t.Fatal(err)
	}
	if o.storeDir != "wh" || o.storeBudget != 4096 || o.storeGCEvery != 10*time.Second || o.storePin != "base, other" {
		t.Errorf("store options wrong: %+v", o)
	}
	// The warehouse IS the cell cache: both at once is a configuration
	// error, and budget/pins without a store are dead flags.
	for _, args := range [][]string{
		{"-store", "wh", "-cache", "cc"},
		{"-store-budget", "4096"},
		{"-store-gc-interval", "10s"},
		{"-store-pin", "base"},
		{"-store", "wh", "-store-budget", "-1"},
		{"-worker", "-join", "http://c:8080", "-store", "wh"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded", args)
		}
	}
}

func TestBuildStoreMountsResultsAndPins(t *testing.T) {
	dir := t.TempDir()
	srv, st, err := build(options{storeDir: filepath.Join(dir, "wh"), storePin: "baseline, nightly"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("nil store with -store set")
	}
	if got := st.Pins(); len(got) != 2 || got[0] != "baseline" || got[1] != "nightly" {
		t.Errorf("pins = %v", got)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/results", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /results on a -store daemon: %d", rec.Code)
	}
	// A bad pin id surfaces at build time.
	if _, _, err := build(options{storeDir: filepath.Join(dir, "wh2"), storePin: "../evil"}, nil); err == nil {
		t.Error("build accepted a traversal pin id")
	}
}
