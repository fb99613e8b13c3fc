// Command perfbench is the repository benchmark. It runs one named
// workload of broadcast campaigns end to end through the public entry
// points — campaign.RunSpec over a fresh directory cell cache, then a warm
// rerun of the same spec; on the cluster workload the cold run goes
// through a loopback cluster.Coordinator with one in-process
// cluster.RunWorker — and checks the outputs: every cell's maximum within
// the paper's ⌈(1+√2)n−1⌉, warm artifacts byte-identical to cold ones and
// served wholly from the cache, and the cluster's remote worker really
// used. It repeats the workload for the given number of seconds and
// reports medians.
//
// setup_s is timed in fresh processes of the command itself, started
// with --setup-probe, from process start to the point where a run makes
// its first timed call.
//
// With --trace 1 it makes a separate traced run of the same inputs and
// reports the per-layer split instead (campaign, cache, adversary, tree,
// core, cluster, artifact), timing calls into each layer from outside the
// program; LAYERS.md says which end-to-end metric each one should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload small-cells --seed 1 --seconds 25 --trace 0
//
// The report goes to standard output, host facts first; its last line is
// one JSON object with the keys correct, attempted, failed and metrics.
// The exit code is 1 when any output check fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fset.Int64("seed", 1, "seed the workload's spec is generated from")
	seconds := fset.Int("seconds", 25, "how long to keep repeating the workload")
	traced := fset.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	probe := fset.Bool("setup-probe", false, "only set the workload up, print "+probeReady+" and tear it down (times setup_s)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload NAME, --seconds >= 1 and --trace 0|1 (%v)\n", err)
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		scratch, err = filepath.Abs(scratch)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	// A hard stop well inside the 180-second limit on one run.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: *seed, scratch: scratch, stderr: stderr}
	if *probe {
		if err := b.probe(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up probe: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "host: GOMAXPROCS=%d nproc=%d go=%s os/arch=%s/%s cpu=%q workers=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), workers(w))

	s := samples{}
	defs := endToEnd
	rtt := &transportTrace{}
	iterate := func(s samples) error {
		if err := b.iterate(s); err != nil {
			return err
		}
		return b.sampleSetup(s)
	}
	if *traced == 1 {
		defs = perLayer
		iterate = func(s samples) error { return b.traceIteration(s, rtt) }
	}

	const minIterations = 3
	start := time.Now()
	iterations := 0
	for len(b.failures) == 0 && (iterations < minIterations || time.Since(start) < time.Duration(*seconds)*time.Second) {
		if err := iterate(s); err != nil {
			b.failf("iteration %d: %v", iterations+1, err)
			break
		}
		iterations++
	}

	values := make(map[string]float64, len(defs))
	for _, d := range defs {
		values[d.name] = median(s[d.name])
	}
	if *traced == 1 {
		addRTT(values, "cluster.lease_rtt", rtt.leaseRTT)
		addRTT(values, "cluster.push_rtt", rtt.pushRTT)
	} else {
		values["peak_rss_bytes"] = peakRSS()
		values["ok_frac"] = 1 - float64(b.failed)/float64(max(b.attempted, 1))
	}

	fmt.Fprintf(stdout, "iterations: %d in %.1f s\n", iterations, time.Since(start).Seconds())
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := values[d.name]
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-44s %14.6g %-6s%s\n", d.name, v, d.unit, spread(s[d.name]))
	}
	if *traced == 0 && b.attempted > 0 {
		fmt.Fprintf(stdout, "  derived: %.0f B allocated per trial, %.3g rounds per trial\n",
			values["alloc_bytes"]/float64(w.trials*len(w.ns)*len(w.scenarios)),
			values["rounds_per_s"]/values["trials_per_s"])
	}
	correct := len(b.failures) == 0 && b.failed == 0 && b.attempted > 0
	if correct {
		fmt.Fprintln(stdout, "checks: all passed")
	}
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "check FAILED: %s\n", f)
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// setupProbes is how many set-up probes each untraced iteration makes,
// so that setup_s is the median of many samples spread over the run.
const setupProbes = 4

// probeReady is the line a --setup-probe process prints once set up.
const probeReady = "ready"

// sampleSetup times setupProbes fresh processes of this command.
func (b *bench) sampleSetup(s samples) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for range setupProbes {
		d, err := b.probeSetup(exe)
		if err != nil {
			return err
		}
		s.add("setup_s", d.Seconds())
	}
	return nil
}

// probeSetup starts exe with --setup-probe and returns the time from its
// start to its ready line: process start, package initialization (the
// adversary registry included), the scratch directory, spec generation
// and validation, the empty cell cache and, on the sharded workload, the
// listener, coordinator and joined worker. That is everything a run does
// before its first timed call. It waits for the process to end.
func (b *bench) probeSetup(exe string) (time.Duration, error) {
	cmd := exec.CommandContext(b.ctx, exe,
		"--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10), "--setup-probe")
	cmd.Stderr = b.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	_, drainErr := io.Copy(io.Discard, out)
	if err := errors.Join(readErr, drainErr, cmd.Wait()); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if line != probeReady+"\n" {
		return 0, fmt.Errorf("set-up probe printed %q", line)
	}
	return d, nil
}

// probe is the --setup-probe mode: set the workload up, say so, tear it
// down.
func (b *bench) probe(stdout io.Writer) error {
	in, err := b.setUp(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, probeReady)
	return in.tearDown()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// addRTT reports a pooled round-trip sample set as its median, its
// highest percentile with at least ten samples beyond it, and its count.
func addRTT(values map[string]float64, prefix string, vs []float64) {
	pct := tailPercent(len(vs))
	values[prefix+"_p50_s"] = median(vs)
	values[prefix+"_tail_s"] = quantile(vs, pct/100)
	values[prefix+"_tail_pct"] = pct
	values[prefix+"_samples"] = float64(len(vs))
}

// spread renders a metric's per-iteration quartiles for the report.
func spread(vs []float64) string {
	if len(vs) < 2 {
		return ""
	}
	return fmt.Sprintf(" (median of %d; quartiles %.6g .. %.6g)", len(vs), quantile(vs, 0.25), quantile(vs, 0.75))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
