package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// The traced run times calls into each layer's public functions from the
// benchmark's side of the boundary. Three decorators do it without
// changing behaviour: timedAdversary (adversary layer), timedCache (cell
// cache) and timedTransport (the cluster worker's HTTP round trips). The
// engine and tree layers are timed inline in tracedLoop.

// familyTrace accumulates one worker's time spent on one adversary family.
type familyTrace struct {
	build, next, step, fill time.Duration
	rounds                  int64
}

func (t *familyTrace) add(o *familyTrace) {
	t.build += o.build
	t.next += o.next
	t.step += o.step
	t.fill += o.fill
	t.rounds += o.rounds
}

// timedAdversary times Reset as adversary build work and Next as
// per-round adversary work.
type timedAdversary struct {
	inner campaign.ReusableAdversary
	tr    *familyTrace
}

func (a timedAdversary) Reset(src *rng.Source) {
	t0 := time.Now()
	a.inner.Reset(src)
	a.tr.build += time.Since(t0)
}

func (a timedAdversary) Next(v core.View) *tree.Tree {
	t0 := time.Now()
	t := a.inner.Next(v)
	a.tr.next += time.Since(t0)
	return t
}

// span is the job-index range [lo, hi) of one cell.
type span struct{ lo, hi int }

// cellSpans cuts compiled jobs into their cells; Spec.Compile emits each
// cell's trials consecutively.
func cellSpans(jobs []campaign.Job) []span {
	var out []span
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].Cell == jobs[lo].Cell {
			hi++
		}
		out = append(out, span{lo, hi})
		lo = hi
	}
	return out
}

// tracedLoop runs compiled jobs the way the campaign pool does — whole
// cells on workers goroutines, one reusable adversary per (worker, cell)
// reset to each trial's source, core.Runner.Run's round loop on a reused
// engine — and times each call into the adversary, engine and tree
// layers. After every Step it times tree.DepthOrder.Fill on the round's
// tree as a probe of the engine's own ordering pass. It returns the job
// results and the time per family, summed over workers.
func tracedLoop(ctx context.Context, jobs []campaign.Job, cells map[string]cellInfo, maxRounds, workers int) ([]campaign.JobResult, map[string]*familyTrace, error) {
	spans := cellSpans(jobs)
	results := make([]campaign.JobResult, len(jobs))
	for i := range results {
		results[i] = campaign.JobResult{Index: i, Skipped: true}
	}
	traces := make([]map[string]*familyTrace, workers)
	errs := make([]error, workers)
	var nextSpan atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		traces[w] = make(map[string]*familyTrace)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e *core.Engine
			var order tree.DepthOrder
			for {
				i := int(nextSpan.Add(1)) - 1
				if i >= len(spans) || ctx.Err() != nil {
					return
				}
				sp := spans[i]
				cell := jobs[sp.lo].Cell
				info, ok := cells[cell]
				if !ok || info.family.NewReusable == nil {
					errs[w] = fmt.Errorf("cell %s: no reusable adversary family", cell)
					return
				}
				tr := traces[w][info.family.Name]
				if tr == nil {
					tr = &familyTrace{}
					traces[w][info.family.Name] = tr
				}
				t0 := time.Now()
				inner, err := info.family.NewReusable(info.n, info.params)
				tr.build += time.Since(t0)
				if err != nil {
					errs[w] = fmt.Errorf("cell %s: %w", cell, err)
					return
				}
				adv := timedAdversary{inner: inner, tr: tr}
				budget := maxRounds
				if budget <= 0 {
					budget = info.n*info.n + 1
				}
				for idx := sp.lo; idx < sp.hi; idx++ {
					adv.Reset(jobs[idx].Src)
					if e == nil {
						e = core.NewEngine(info.n)
					} else {
						e.Reset(info.n)
					}
					rounds, err := runTrial(e, adv, info.n, budget, tr, &order)
					if err != nil {
						results[idx] = campaign.JobResult{Index: idx, Err: fmt.Errorf("campaign: %s: %w", cell, err)}
						continue
					}
					results[idx] = campaign.JobResult{Index: idx,
						Measurements: []campaign.Measurement{{Cell: cell, Value: float64(rounds)}}}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return nil, nil, err
	}
	merged := make(map[string]*familyTrace)
	for _, byFamily := range traces {
		for name, tr := range byFamily {
			if merged[name] == nil {
				merged[name] = &familyTrace{}
			}
			merged[name].add(tr)
		}
	}
	return results, merged, nil
}

// runTrial is core.Runner.Run's broadcast loop with Step and the
// DepthOrder probe timed (Next is timed by the adversary decorator).
func runTrial(e *core.Engine, adv core.Adversary, n, budget int, tr *familyTrace, order *tree.DepthOrder) (int, error) {
	for !e.BroadcastDone() {
		if e.Round() >= budget {
			return e.Round(), fmt.Errorf("%w: %s incomplete after %d rounds (n=%d)",
				core.ErrMaxRounds, core.Broadcast, e.Round(), n)
		}
		t := adv.Next(e)
		if t == nil || t.N() != n {
			return e.Round(), fmt.Errorf("%w: round %d", core.ErrBadTree, e.Round()+1)
		}
		t0 := time.Now()
		e.Step(t)
		t1 := time.Now()
		order.Fill(t.Parents())
		tr.step += t1.Sub(t0)
		tr.fill += time.Since(t1)
		tr.rounds++
	}
	return e.Round(), nil
}

// cacheTrace counts a cell cache's traffic.
type cacheTrace struct {
	putNs, putBytes, getNs, getBytes, hits, misses atomic.Int64
}

// traceCache decorates c with timing and byte counts. The result is a
// cache.Deleter exactly when c is one, so campaign's corruption healing
// still reaches the backend.
func traceCache(c cache.Cache, tr *cacheTrace) cache.Cache {
	tc := timedCache{inner: c, tr: tr}
	if d, ok := c.(cache.Deleter); ok {
		return timedDeleter{timedCache: tc, del: d}
	}
	return tc
}

type timedCache struct {
	inner cache.Cache
	tr    *cacheTrace
}

func (c timedCache) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	data, ok, err := c.inner.Get(key)
	c.tr.getNs.Add(int64(time.Since(t0)))
	c.tr.getBytes.Add(int64(len(data)))
	if ok {
		c.tr.hits.Add(1)
	} else if err == nil {
		c.tr.misses.Add(1)
	}
	return data, ok, err
}

func (c timedCache) Put(key string, data []byte) error {
	t0 := time.Now()
	err := c.inner.Put(key, data)
	c.tr.putNs.Add(int64(time.Since(t0)))
	c.tr.putBytes.Add(int64(len(data)))
	return err
}

type timedDeleter struct {
	timedCache
	del cache.Deleter
}

func (c timedDeleter) Delete(key string) error { return c.del.Delete(key) }

// transportTrace records the cluster worker's HTTP round trips.
type transportTrace struct {
	mu                sync.Mutex
	leaseRTT, pushRTT []float64 // seconds, request sent → response headers
	requests, leases  int
	pushBytes         int64
}

func (tr *transportTrace) wrap(rt http.RoundTripper) http.RoundTripper {
	return timedTransport{inner: rt, tr: tr}
}

type timedTransport struct {
	inner http.RoundTripper
	tr    *transportTrace
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	rtt := time.Since(t0).Seconds()
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	t.tr.requests++
	switch req.URL.Path {
	case "/cluster/lease":
		t.tr.leaseRTT = append(t.tr.leaseRTT, rtt)
		t.tr.leases++
	case "/cluster/results":
		t.tr.pushRTT = append(t.tr.pushRTT, rtt)
		t.tr.pushBytes += max(req.ContentLength, 0)
	}
	return resp, err
}

// traceIteration runs one traced iteration: an untraced reference cold
// and warm run, the layer pass on the same spec, and a decorated cold and
// warm run. It records per-layer samples and pools the cluster round-trip
// times into rtt.
func (b *bench) traceIteration(s samples, rtt *transportTrace) error {
	// The untraced reference for the artifact, the cell statistics and
	// the decorators' overhead.
	ref, err := b.coldAndWarm(nil, plain, plain)
	if ref != nil {
		err = errors.Join(err, ref.in.tearDown())
	}
	if err != nil {
		return err
	}

	if err := b.layerPass(s, ref); err != nil {
		return err
	}

	// The decorated path: the same cold and warm runs through the cache
	// and transport decorators.
	tt := &transportTrace{}
	coldTrace, warmTrace := &cacheTrace{}, &cacheTrace{}
	p, err := b.coldAndWarm(tt.wrap,
		func(c cache.Cache) cache.Cache { return traceCache(c, coldTrace) },
		func(c cache.Cache) cache.Cache { return traceCache(c, warmTrace) })
	if p != nil {
		err = errors.Join(err, p.in.tearDown())
	}
	if err != nil {
		return err
	}
	if string(p.cold.art) != string(ref.cold.art) {
		b.failf("traced: decorated cold artifact differs from the untraced one")
		b.failed += p.cold.out.Jobs
	}
	s.add("trace.decorated_overhead_s", (p.cold.wall - ref.cold.wall).Seconds())
	s.add("cache.put_s", time.Duration(coldTrace.putNs.Load()).Seconds())
	s.add("cache.put_bytes", float64(coldTrace.putBytes.Load()))
	s.add("cache.get_s", time.Duration(warmTrace.getNs.Load()).Seconds())
	s.add("cache.get_bytes", float64(warmTrace.getBytes.Load()))
	s.add("cache.hits", float64(coldTrace.hits.Load()+warmTrace.hits.Load()))
	s.add("cache.misses", float64(coldTrace.misses.Load()+warmTrace.misses.Load()))
	s.add("campaign.warm_self_s", (p.warm.run - time.Duration(warmTrace.getNs.Load())).Seconds())
	s.add("artifact.write_s", p.cold.write.Seconds())
	s.add("artifact.bytes", float64(len(p.cold.art)))

	if p.cluster != nil {
		shards := len(p.cells) * ((b.w.trials + b.w.shardTrials - 1) / b.w.shardTrials)
		// Every shard holds shardTrials trials: the workloads' trial
		// counts are multiples of it.
		remoteTrials := p.cluster.remote * b.w.shardTrials
		s.add("cluster.push_bytes_per_trial", float64(tt.pushBytes)/float64(max(remoteTrials, 1)))
		s.add("cluster.requests", float64(tt.requests))
		s.add("cluster.remote_shard_frac", float64(p.cluster.remote)/float64(shards))
		s.add("cluster.requeued", float64(p.cluster.requeued))
		rtt.leaseRTT = append(rtt.leaseRTT, tt.leaseRTT...)
		rtt.pushRTT = append(rtt.pushRTT, tt.pushRTT...)
	}
	return nil
}

// layerPass runs the reference run's spec twice with the same work and
// no cache or artifact: untraced (Spec.Compile, campaign.Run, Aggregate),
// then traced (Spec.Compile, tracedLoop, Aggregate). The difference,
// less the DepthOrder probe's own time, is the tracing overhead. Both
// passes' cells must equal the untraced outcome's, and the traced pass
// must step exactly the outcome's rounds.
func (b *bench) layerPass(s samples, ref *pass) error {
	spec := ref.in.spec
	runtime.GC()
	t0 := time.Now()
	jobs, err := spec.Compile()
	if err != nil {
		return err
	}
	plainResults, err := campaign.Run(b.ctx, jobs, campaign.Config{Workers: localWorkers})
	if err != nil {
		return err
	}
	plainCells := campaign.Aggregate(plainResults)
	plainWall := time.Since(t0)
	ok := sameCells(plainCells, ref.cold.out.Cells)
	if !ok {
		b.failf("traced: campaign.Run's per-cell statistics differ from the untraced outcome")
	}
	b.account(&campaign.Outcome{Jobs: len(jobs), Completed: len(jobs) - countErrs(plainResults)}, ok)

	runtime.GC()
	a0, _ := heapAllocs()
	t0 = time.Now()
	jobs, err = spec.Compile()
	if err != nil {
		return err
	}
	t1 := time.Now()
	a1, _ := heapAllocs()
	results, fams, err := tracedLoop(b.ctx, jobs, ref.cells, spec.MaxRounds, localWorkers)
	if err != nil {
		return err
	}
	t2 := time.Now()
	cells := campaign.Aggregate(results)
	t3 := time.Now()

	var total familyTrace
	for _, name := range families {
		if tr := fams[name]; tr != nil && tr.rounds > 0 {
			s.add("adversary.next_ns_per_round."+name, float64(tr.next.Nanoseconds())/float64(tr.rounds))
		}
	}
	for _, tr := range fams {
		total.add(tr)
	}
	rounds := max(total.rounds, 1)
	s.add("campaign.compile_s", t1.Sub(t0).Seconds())
	s.add("campaign.compile_alloc_bytes", float64(a1-a0))
	s.add("campaign.aggregate_s", t3.Sub(t2).Seconds())
	s.add("trace.overhead_s", (t3.Sub(t0) - total.fill - plainWall).Seconds())
	s.add("adversary.build_s", total.build.Seconds())
	s.add("adversary.next_s", total.next.Seconds())
	s.add("core.step_s", total.step.Seconds())
	s.add("core.step_ns_per_round", float64(total.step.Nanoseconds())/float64(rounds))
	s.add("core.rounds", float64(total.rounds))
	s.add("tree.depth_order_ns_per_round", float64(total.fill.Nanoseconds())/float64(rounds))

	ok = sameCells(cells, ref.cold.out.Cells)
	if !ok {
		b.failf("traced: per-cell statistics differ from the untraced outcome")
	}
	if want := outcomeRounds(ref.cold.out); total.rounds != want {
		b.failf("traced: core.rounds = %d, untraced outcome has %d", total.rounds, want)
		ok = false
	}
	b.account(&campaign.Outcome{Jobs: len(jobs), Completed: len(jobs) - countErrs(results)}, ok)
	return nil
}

// sameCells reports whether got has want's cells with equal count, min,
// max and mean.
func sameCells(got, want []campaign.CellStats) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Cell != w.Cell || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || g.Mean != w.Mean {
			return false
		}
	}
	return true
}

func countErrs(results []campaign.JobResult) int {
	n := 0
	for _, r := range results {
		if r.Err != nil || r.Skipped {
			n++
		}
	}
	return n
}
