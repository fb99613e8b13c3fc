package campaign

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dyntreecast/internal/campaign/cache"
)

// RunSpec plans the spec, executes its cells on cfg's worker pool and
// aggregates per-cell statistics. Trial failures do not abort the
// campaign: they are counted and recorded (in job-index order) in
// Outcome.Errors. The returned error is non-nil only for an invalid
// spec, a cache backend failure, or a cancelled context; on cancellation
// the partial Outcome is still returned.
//
// Each content address runs once: a grid that lists a cell twice (ns:
// [8, 8]) executes it once and reports it under both listings, as if
// both had run. When cfg.Cache is set, each cell whose content address
// is present in the cache is served from it (its trials never reach the
// pool), and each cell computed fresh and fully successful is stored
// back as soon as its last trial lands. A cancelled or killed run
// therefore leaves every completed cell in the cache, and rerunning the
// spec over the same cache — at any worker count — executes only the
// missing cells. Either way the aggregated Outcome, and its JSON
// artifact, is byte-identical to an uncached, uninterrupted run, because
// round counts are observed in plan and trial order regardless of
// provenance.
func RunSpec(ctx context.Context, spec Spec, cfg Config) (*Outcome, error) {
	cells, canon, err := spec.plan()
	if err != nil {
		return nil, err
	}
	mRunsStarted.Inc()
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	// Group the planned cells into one run per content address, each
	// loaded from the cache when it holds the address.
	e := &execution{cfg: cfg, canon: canon, cells: cells, runOf: make([]int, len(cells)), jobs: cells[len(cells)-1].Hi}
	byKey := make(map[string]int, len(cells))
	cacheHits := 0
	for i := range cells {
		c := &cells[i]
		n := c.Hi - c.Lo
		ri, seen := byKey[c.Key]
		if !seen {
			rounds, cached, err := loadCell(cfg.Cache, c)
			if err != nil {
				return nil, err
			}
			ri = len(e.runs)
			byKey[c.Key] = ri
			e.runs = append(e.runs, cellRun{plan: c, rounds: rounds, left: n})
			if cached {
				e.land(ri, 0, n, nil)
			} else {
				e.runs[ri].rounds = make([]uint32, n)
			}
		}
		r := &e.runs[ri]
		r.plans = append(r.plans, c)
		e.runOf[i] = ri
		if r.left == 0 {
			cacheHits += n
		}
	}
	e.done = cacheHits
	var runErr error
	if cfg.Cache == nil {
		runErr = e.execute(ctx)
	} else {
		// Execution moves to its own goroutine; this one is the only
		// one that touches the cache, storing cells as they land.
		e.stored = make(chan int, len(e.runs)) // each run is queued at most once
		go func() {
			runErr = e.execute(ctx)
			close(e.stored)
		}()
		if err := e.drain(cfg.Cache); err != nil {
			return nil, err
		}
	}
	return e.outcome(cacheHits), runErr
}

// loadCell reads one cell's round counts from the cache, if there is
// one. A truncated, torn, or foreign entry — or one in another entry
// format — is a miss, never an error: the cell is recomputed (the
// determinism contract makes the recomputation byte-identical to what
// the entry should have held).
// Backends that can delete also heal — the bad bytes are evicted
// immediately instead of being served to readers that never Put (the
// warehouse query layer) until some campaign overwrites them.
func loadCell(c cache.Cache, plan *cellPlan) ([]uint32, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	data, ok, err := c.Get(plan.Key)
	if err != nil {
		return nil, false, fmt.Errorf("campaign: cache get %s: %w", plan.Cell, err)
	}
	if !ok {
		return nil, false, nil
	}
	if rounds, err := DecodeCellEntry(data, plan.Cell, plan.Hi-plan.Lo); err == nil {
		return rounds, true, nil
	}
	if d, ok := c.(cache.Deleter); ok {
		if err := d.Delete(plan.Key); err != nil {
			return nil, false, fmt.Errorf("campaign: cache delete %s: %w", plan.Cell, err)
		}
	}
	return nil, false, nil
}

// execution is one RunSpec's state: the planned cells, grouped by
// content address into runs, and what has landed of each run's trials.
type execution struct {
	cfg   Config
	canon Spec
	cells []cellPlan
	runOf []int // cells[i] is reported from runs[runOf[i]]
	runs  []cellRun
	jobs  int // trials over every planned cell: Outcome.Jobs

	mu     sync.Mutex // guards the runs' landing state, done and the callbacks
	done   int        // trials reported so far, for Progress
	stored chan int   // runs whose every trial landed; nil without a cache
}

// cellRun is one distinct content address of a planned grid, executed
// once however many planned cells share it: its trials' round counts, in
// trial order, and the trial ranges that have landed.
type cellRun struct {
	plan   *cellPlan   // the first planned cell with this address
	plans  []*cellPlan // every planned cell with this address, in plan order
	rounds []uint32

	// Guarded by the execution's mutex.
	spans []span     // landed trial ranges, in landing order
	errs  []trialErr // landed trials that failed, in landing order
	left  int        // trials not landed yet
}

type span struct{ lo, hi int }

type trialErr struct {
	i   int
	err error
}

// execute runs every pending run, on the remote-backed pool when
// cfg.Remote is set, and reports a cancelled ctx.
func (e *execution) execute(ctx context.Context) error {
	if e.cfg.Remote != nil {
		e.runRemote(ctx)
	} else {
		e.runLocal(ctx)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("campaign: cancelled: %w", err)
	}
	return nil
}

// runLocal executes the pending runs on the local pool, writing each
// batch straight into its run's round counts. A batch cut short by
// cancellation lands the trials it ran.
func (e *execution) runLocal(ctx context.Context) {
	sizes := make([]int, len(e.runs))
	for i := range e.runs {
		sizes[i] = e.runs[i].left
	}
	workers := e.cfg.workers()
	batches := sliceBatches(sizes, workers)
	streams := e.cfg.OnResult != nil || e.cfg.Progress != nil
	runPool(min(workers, len(batches)), claimInOrder(ctx, batches), func(b batch, a *Arena) {
		r := &e.runs[b.cell]
		var errs []trialErr
		ran := r.plan.execute(ctx, b.lo, b.hi, a, r.rounds[b.lo:b.hi], func(i int, err error) bool {
			countTrial(err)
			if err != nil {
				errs = append(errs, trialErr{i, err})
			}
			if streams {
				e.mu.Lock()
				e.report(r, i, err)
				e.mu.Unlock()
			}
			return true
		})
		e.mu.Lock()
		e.land(b.cell, b.lo, b.lo+ran, errs)
		e.mu.Unlock()
	})
}

// report streams trial i of run r, whose round count is in place, to
// OnResult and Progress, once for every planned cell sharing the run.
// Called with e.mu held.
func (e *execution) report(r *cellRun, i int, err error) {
	for _, c := range r.plans {
		if e.cfg.OnResult != nil {
			tr := TrialResult{Index: c.Lo + i, Cell: c.Cell, Err: err}
			if err == nil {
				tr.Rounds = int(r.rounds[i])
			}
			e.cfg.OnResult(tr)
		}
		e.done++
		if e.cfg.Progress != nil {
			e.cfg.Progress(e.done, e.jobs)
		}
	}
}

// land records that trials [lo, hi) of the i-th run hold their final
// round counts, errs those that failed, and queues the run for the cache
// once its every trial has landed, if none failed (a failure is
// deterministic and resurfaces on rerun). Called with e.mu held, or
// before execution starts.
func (e *execution) land(i, lo, hi int, errs []trialErr) {
	if lo >= hi {
		return
	}
	r := &e.runs[i]
	r.spans = append(r.spans, span{lo, hi})
	r.errs = append(r.errs, errs...)
	if r.left -= hi - lo; r.left == 0 && len(r.errs) == 0 && e.stored != nil {
		e.stored <- i
	}
}

// drain stores every queued run until the queue is closed, and reports
// the first Put failure (runs queued after it are not stored).
func (e *execution) drain(c cache.Cache) error {
	var (
		first error
		buf   []byte // one encoding buffer for every cell
	)
	for i := range e.stored {
		r := &e.runs[i]
		if first != nil {
			continue
		}
		buf = appendCellEntry(buf[:0], r.plan.Cell, r.rounds)
		if err := c.Put(r.plan.Key, buf); err != nil {
			first = fmt.Errorf("campaign: cache put %s: %w", r.plan.Cell, err)
		}
	}
	return first
}

// outcome aggregates what landed, once execution is over: cells pooled
// by display name in the order their first successful trial appears in
// job-index order, trial errors in job-index order. It is the runs' last
// reader, so it sorts their round counts in place.
func (e *execution) outcome(cacheHits int) *Outcome {
	out := &Outcome{Spec: e.canon, Jobs: e.jobs, CacheHits: cacheHits}
	for i := range e.runs {
		r := &e.runs[i]
		slices.SortFunc(r.spans, func(a, b span) int { return a.lo - b.lo })
		slices.SortFunc(r.errs, func(a, b trialErr) int { return a.i - b.i })
	}
	var (
		order  []string
		byName = make(map[string][]*cellRun)
	)
	for i, c := range e.cells {
		r := &e.runs[e.runOf[i]]
		landed := c.Hi - c.Lo - r.left
		out.Completed += landed - len(r.errs)
		out.Failed += len(r.errs)
		for _, te := range r.errs {
			out.Errors = append(out.Errors, te.err.Error())
		}
		if landed == len(r.errs) {
			continue // nothing to pool
		}
		if _, seen := byName[c.Cell]; !seen {
			order = append(order, c.Cell)
		}
		byName[c.Cell] = append(byName[c.Cell], r)
	}
	out.Cells = make([]CellStats, 0, len(order))
	var pooled []uint32
	for _, name := range order {
		runs := byName[name]
		xs := runs[0].rounds
		if len(runs) > 1 || runs[0].left > 0 || len(runs[0].errs) > 0 {
			pooled = pooled[:0]
			for _, r := range runs {
				pooled = r.appendSucceeded(pooled)
			}
			xs = pooled
		}
		out.Cells = append(out.Cells, summarize(name, xs, &xs))
	}
	out.Executed = out.Completed + out.Failed - cacheHits
	return out
}

// appendSucceeded appends the round counts of the run's landed,
// successful trials to dst, in trial order. Spans and errors must be
// sorted.
func (r *cellRun) appendSucceeded(dst []uint32) []uint32 {
	errs := r.errs
	for _, s := range r.spans {
		for t := s.lo; t < s.hi; t++ {
			if len(errs) > 0 && errs[0].i == t {
				errs = errs[1:]
				continue
			}
			dst = append(dst, r.rounds[t])
		}
	}
	return dst
}
