package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
)

// bench is one run of one workload.
type bench struct {
	ctx     context.Context
	w       workload
	seed    int64
	scratch string    // per-run directory inside the checkout
	stderr  io.Writer // where set-up probes write their errors

	attempted, failed int // jobs, over every campaign run made
	failures          []string
}

// instance is one set-up copy of the workload: its spec, an empty cell
// cache and, on the cluster workload, a loopback cluster.
type instance struct {
	spec  campaign.Spec
	dir   string
	cache *cache.Dir
	cl    *loopback
}

// setUp generates and loads the spec, creates an empty directory cache
// and, when the workload shards, starts a loopback cluster whose worker
// transport wrap decorates (nil for none).
func (b *bench) setUp(wrap func(http.RoundTripper) http.RoundTripper) (*instance, error) {
	data, err := b.w.specJSON(b.seed)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(data)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.scratch, "cells-")
	if err != nil {
		return nil, err
	}
	c, err := cache.NewDir(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	in := &instance{spec: spec, dir: dir, cache: c}
	if b.w.shardTrials > 0 {
		if in.cl, err = startLoopback(b.w.shardTrials, wrap); err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
	}
	return in, nil
}

// stopCluster stops the instance's cluster, if any, and returns its
// coordinator's final counters.
func (in *instance) stopCluster() (stats *clusterStats, err error) {
	if in.cl == nil {
		return nil, nil
	}
	st := in.cl.coord.Stats()
	err = in.cl.stop()
	in.cl = nil
	return &clusterStats{remote: st.RemoteCells, requeued: st.Requeued}, err
}

type clusterStats struct{ remote, requeued int }

func (in *instance) tearDown() error {
	_, err := in.stopCluster()
	return errors.Join(err, os.RemoveAll(in.dir))
}

// localWorkers is the campaign pool size of every run. On a shared
// two-core host, same-seed heuristic-mix runs spread 12 % in wall time
// with two pool workers and 2 % with one. On the cluster workload the
// remote worker runs beside the local one, so that path uses nproc = 2.
const localWorkers = 1

// workers describes the worker count of w's cold runs for the report.
func workers(w workload) string {
	if w.shardTrials > 0 {
		return fmt.Sprintf("%d local + 1 remote", localWorkers)
	}
	return fmt.Sprint(localWorkers)
}

// coldConfig runs the cold path on the local pool, through the instance's
// cluster when it has one.
func coldConfig(in *instance, c cache.Cache) campaign.Config {
	cfg := campaign.Config{Workers: localWorkers, Cache: c}
	if in.cl != nil {
		cfg.Remote = in.cl.coord
	}
	return cfg
}

// pathRun is one pass of the user-visible path: spec in, artifact out.
type pathRun struct {
	out                *campaign.Outcome
	art                []byte
	wall               time.Duration // RunSpec plus WriteJSON
	run                time.Duration // RunSpec alone
	write              time.Duration // WriteJSON alone
	cpu                time.Duration
	allocBytes, allocs uint64
}

func runPath(ctx context.Context, spec campaign.Spec, cfg campaign.Config) (pathRun, error) {
	runtime.GC()
	b0, o0 := heapAllocs()
	c0 := cpuTime()
	t0 := time.Now()
	out, err := campaign.RunSpec(ctx, spec, cfg)
	if err != nil {
		return pathRun{out: out}, err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		return pathRun{out: out}, err
	}
	t2 := time.Now()
	cpu := cpuTime() - c0
	b1, o1 := heapAllocs()
	return pathRun{out: out, art: buf.Bytes(), wall: t2.Sub(t0), run: t1.Sub(t0), write: t2.Sub(t1),
		cpu: cpu, allocBytes: b1 - b0, allocs: o1 - o0}, nil
}

// failf records a failed output check.
func (b *bench) failf(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// account counts one campaign run's jobs: failed or skipped jobs fail,
// and all of them do when one of the run's output checks failed.
func (b *bench) account(out *campaign.Outcome, checksOK bool) {
	jobs := b.w.trials * len(b.w.ns) * len(b.w.scenarios)
	if out != nil {
		jobs = out.Jobs
	}
	bad := jobs
	if out != nil && checksOK {
		bad = out.Jobs - out.Completed
	}
	b.attempted += jobs
	b.failed += bad
}

// checkOutcome verifies a run's outcome: every job completed and every
// cell's maximum is within the paper's ⌈(1+√2)n−1⌉.
func (b *bench) checkOutcome(label string, out *campaign.Outcome, cells map[string]cellInfo) bool {
	ok := true
	if out.Failed != 0 || out.Completed != out.Jobs {
		b.failf("%s: %d of %d jobs completed, %d failed: %v", label, out.Completed, out.Jobs, out.Failed, out.Errors)
		ok = false
	}
	if len(out.Cells) != len(cells) {
		b.failf("%s: %d cells, want %d", label, len(out.Cells), len(cells))
		ok = false
	}
	for _, c := range out.Cells {
		info, known := cells[c.Cell]
		switch {
		case !known:
			b.failf("%s: unexpected cell %s", label, c.Cell)
			ok = false
		case c.Count != out.Spec.Trials:
			b.failf("%s: cell %s has %d trials, want %d", label, c.Cell, c.Count, out.Spec.Trials)
			ok = false
		case c.Max > float64(bounds.UpperLinear(info.n)):
			b.failf("%s: cell %s max %v rounds exceeds the (1+√2)n−1 bound %d", label, c.Cell, c.Max, bounds.UpperLinear(info.n))
			ok = false
		}
	}
	return ok
}

// checkWarm verifies a warm rerun against the cold run it follows.
func (b *bench) checkWarm(label string, cold, warm pathRun) bool {
	ok := true
	if sha256.Sum256(warm.art) != sha256.Sum256(cold.art) {
		b.failf("%s: warm artifact differs from the cold one", label)
		ok = false
	}
	if warm.out.Executed != 0 || warm.out.CacheHits != warm.out.Jobs {
		b.failf("%s: warm run executed %d jobs and hit the cache for %d of %d", label,
			warm.out.Executed, warm.out.CacheHits, warm.out.Jobs)
		ok = false
	}
	return ok
}

// checkRemote verifies the cluster really ran part of a campaign remotely.
func (b *bench) checkRemote(label string, st *clusterStats) bool {
	if st != nil && st.remote < 1 {
		b.failf("%s: the remote worker completed no shard", label)
		return false
	}
	return true
}

// pass is one set-up instance run cold, then warm.
type pass struct {
	in         *instance
	cells      map[string]cellInfo
	cold, warm pathRun
	cluster    *clusterStats // nil on local workloads
	cacheBytes int64         // bytes in the cell cache after the cold run
}

// coldAndWarm sets up an instance, runs the cold path through it (the
// cluster on the sharded workload), stops the cluster, reruns the spec
// locally against the now-warm cache, and checks both runs. coldCache and
// warmCache may decorate the instance's cache for either run. The caller
// tears down p.in whenever p is non-nil.
func (b *bench) coldAndWarm(wrap func(http.RoundTripper) http.RoundTripper, coldCache, warmCache func(cache.Cache) cache.Cache) (p *pass, err error) {
	in, err := b.setUp(wrap)
	if err != nil {
		return nil, err
	}
	p = &pass{in: in}
	if p.cells, err = cellPlan(in.spec); err != nil {
		return p, err
	}
	p.cold, err = runPath(b.ctx, in.spec, coldConfig(in, coldCache(in.cache)))
	var stopErr error
	p.cluster, stopErr = in.stopCluster()
	if err = errors.Join(err, stopErr); err != nil {
		b.account(p.cold.out, false)
		return p, err
	}
	coldOK := b.checkOutcome("cold", p.cold.out, p.cells) && b.checkRemote("cold", p.cluster)
	b.account(p.cold.out, coldOK)
	p.cacheBytes = dirBytes(in.dir)

	p.warm, err = b.warmRun(p, warmCache(in.cache))
	return p, err
}

// warmRun reruns p's spec locally against the cache c, which the cold run
// filled, and checks the rerun against the cold run.
func (b *bench) warmRun(p *pass, c cache.Cache) (pathRun, error) {
	warm, err := runPath(b.ctx, p.in.spec, campaign.Config{Workers: localWorkers, Cache: c})
	if err != nil {
		b.account(warm.out, false)
		return warm, err
	}
	b.account(warm.out, b.checkWarm("warm", p.cold, warm))
	return warm, nil
}

func plain(c cache.Cache) cache.Cache { return c }

// warmReps is how many warm reruns an untraced iteration times. A warm
// rerun is short and dominated by file reads and JSON decoding, so its
// time varies more than the cold path's and it gets more samples.
const warmReps = 3

// iterate runs one untraced iteration and records its end-to-end samples.
func (b *bench) iterate(s samples) error {
	p, err := b.coldAndWarm(nil, plain, plain)
	if err == nil {
		s.add("warm_s", p.warm.wall.Seconds())
		for range warmReps - 1 {
			var warm pathRun
			if warm, err = b.warmRun(p, p.in.cache); err != nil {
				break
			}
			s.add("warm_s", warm.wall.Seconds())
		}
	}
	if p != nil {
		err = errors.Join(err, p.in.tearDown())
	}
	if err != nil {
		return err
	}
	wall := p.cold.wall.Seconds()
	s.add("wall_s", wall)
	s.add("cpu_s", p.cold.cpu.Seconds())
	s.add("trials_per_s", float64(p.cold.out.Completed)/wall)
	s.add("rounds_per_s", float64(outcomeRounds(p.cold.out))/wall)
	s.add("alloc_bytes", float64(p.cold.allocBytes))
	s.add("allocs", float64(p.cold.allocs))
	s.add("cache_bytes", float64(p.cacheBytes))
	return nil
}

// outcomeRounds is the total number of simulated rounds behind an
// outcome: Σ cell mean × count.
func outcomeRounds(out *campaign.Outcome) int64 {
	var total int64
	for _, c := range out.Cells {
		total += int64(math.Round(c.Mean * float64(c.Count)))
	}
	return total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
