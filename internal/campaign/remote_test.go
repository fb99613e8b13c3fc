package campaign

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"dyntreecast/internal/campaign/cache"
)

// fakeRemote is an in-process Remote for exercising runRemote without
// HTTP: it splits cells into shards of shard trials (0 = whole cell),
// "executes" a chosen subset of them on a goroutine via ExecuteCellJob,
// delivering each shard decoded from its entry as the coordinator does,
// and leaves the rest to the local pool.
type fakeRemote struct {
	// takes decides which offered shards the fake executes remotely
	// (i counts shards in offer order).
	takes func(i int, job CellJob) bool
	// shard is the trials-per-shard split applied to every cell.
	shard int
}

type fakeSession struct {
	mu      sync.Mutex
	order   []string
	shards  map[string][]*fakeShard
	pending int
	closed  bool
	notify  chan struct{}
}

type fakeShard struct {
	job    CellJob // bounds set to the shard's range
	lo, hi int
	remote bool // owned by the fake's executor goroutine
	done   bool
}

// shardSplit cuts a whole-cell job into shard-sized sub-range jobs,
// keeping the (0, 0) whole-cell encoding when no split happens.
func shardSplit(job CellJob, shard int) []*fakeShard {
	if shard <= 0 || shard >= job.Trials {
		return []*fakeShard{{job: job, lo: 0, hi: job.Trials}}
	}
	var out []*fakeShard
	for lo := 0; lo < job.Trials; lo += shard {
		hi := min(lo+shard, job.Trials)
		sj := job
		sj.TrialLo, sj.TrialHi = lo, hi
		out = append(out, &fakeShard{job: sj, lo: lo, hi: hi})
	}
	return out
}

func (f *fakeRemote) Open(jobs []CellJob, deliver func(key string, lo, hi int, rounds []uint32)) RemoteSession {
	s := &fakeSession{shards: make(map[string][]*fakeShard, len(jobs)), notify: make(chan struct{})}
	var mine []*fakeShard
	i := 0
	for _, j := range jobs {
		shards := shardSplit(j, f.shard)
		s.order = append(s.order, j.Key)
		s.shards[j.Key] = shards
		s.pending += len(shards)
		for _, sh := range shards {
			sh.remote = f.takes != nil && f.takes(i, sh.job)
			if sh.remote {
				mine = append(mine, sh)
			}
			i++
		}
	}
	go func() {
		for _, sh := range mine {
			entry, err := ExecuteCellJob(context.Background(), sh.job)
			if err != nil {
				panic(err) // test grids never fail
			}
			trials, err := DecodeCellEntry(entry, sh.job.Cell, sh.hi-sh.lo)
			if err != nil {
				panic(err)
			}
			s.mu.Lock()
			if sh.done {
				s.mu.Unlock()
				continue
			}
			sh.done = true
			s.mu.Unlock()
			deliver(sh.job.Key, sh.lo, sh.hi, trials)
			s.mu.Lock()
			s.pending--
			close(s.notify)
			s.notify = make(chan struct{})
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *fakeSession) ClaimLocal(ctx context.Context) (CellJob, bool) {
	for {
		s.mu.Lock()
		if s.closed || s.pending == 0 {
			s.mu.Unlock()
			return CellJob{}, false
		}
		for _, key := range s.order {
			for _, sh := range s.shards[key] {
				if !sh.done && !sh.remote {
					sh.remote = true // mark claimed so no other local worker takes it
					job := sh.job
					s.mu.Unlock()
					return job, true
				}
			}
		}
		notify := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return CellJob{}, false
		case <-notify:
		}
	}
}

func (s *fakeSession) CompleteLocal(key string, lo, hi int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards[key] {
		if sh.lo == lo && sh.hi == hi && !sh.done {
			sh.done = true
			s.pending--
			close(s.notify)
			s.notify = make(chan struct{})
			return true
		}
	}
	return false
}

func (s *fakeSession) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

func remoteTestSpec() Spec {
	return Spec{
		Name: "remote-unit",
		Scenarios: []Scenario{
			{Adversary: "random-tree"},
			{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
		},
		Ns:     []int{6, 8},
		Trials: 4,
		Seed:   13,
	}
}

func outcomeJSON(t *testing.T, out *Outcome) string {
	t.Helper()
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunSpecRemoteByteIdentity pins the core contract of the remote
// path: for every split of cells between the "remote" executor and the
// local pool — all remote, all local, interleaved — the artifact is
// byte-identical to the plain local pipeline.
func TestRunSpecRemoteByteIdentity(t *testing.T) {
	spec := remoteTestSpec()
	want, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := outcomeJSON(t, want)

	splits := map[string]func(i int, job CellJob) bool{
		"all-remote":  func(int, CellJob) bool { return true },
		"all-local":   func(int, CellJob) bool { return false },
		"interleaved": func(i int, _ CellJob) bool { return i%2 == 0 },
	}
	for name, takes := range splits {
		out, err := RunSpec(context.Background(), spec, Config{
			Workers: 2, Remote: &fakeRemote{takes: takes},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := outcomeJSON(t, out); got != wantJSON {
			t.Errorf("%s: artifact differs from local run:\n%s\nvs\n%s", name, got, wantJSON)
		}
		if out.Completed != out.Jobs || out.Failed != 0 {
			t.Errorf("%s: completed %d/%d, failed %d", name, out.Completed, out.Jobs, out.Failed)
		}
	}
}

// TestRunSpecRemoteShardedByteIdentity is the sharding half of the
// byte-identity battery: splitting every cell's trial range into shards
// of {1 trial, an uneven split, the whole cell}, across remote/local
// splits and worker counts, changes no artifact byte — each trial owns a
// pre-split stream, so the shard size is pure scheduling.
func TestRunSpecRemoteShardedByteIdentity(t *testing.T) {
	spec := remoteTestSpec() // Trials = 4: shard 3 splits unevenly into [0,3)+[3,4)
	want, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := outcomeJSON(t, want)

	splits := map[string]func(i int, job CellJob) bool{
		"all-remote":  func(int, CellJob) bool { return true },
		"all-local":   func(int, CellJob) bool { return false },
		"interleaved": func(i int, _ CellJob) bool { return i%2 == 0 },
	}
	for _, shard := range []int{1, 3, 0} {
		for name, takes := range splits {
			for _, workers := range []int{1, 2} {
				out, err := RunSpec(context.Background(), spec, Config{
					Workers: workers, Remote: &fakeRemote{takes: takes, shard: shard},
				})
				if err != nil {
					t.Fatalf("shard=%d %s workers=%d: %v", shard, name, workers, err)
				}
				if got := outcomeJSON(t, out); got != wantJSON {
					t.Errorf("shard=%d %s workers=%d: artifact differs from whole-cell local run:\n%s\nvs\n%s",
						shard, name, workers, got, wantJSON)
				}
				if out.Completed != out.Jobs || out.Failed != 0 {
					t.Errorf("shard=%d %s workers=%d: completed %d/%d, failed %d",
						shard, name, workers, out.Completed, out.Jobs, out.Failed)
				}
			}
		}
	}
}

// TestRunSpecRemoteShardedCancelStoresLandedCells: a sharded remote run
// cancelled mid-campaign stores exactly the cells whose every shard
// landed, each entry holding all of the cell's trials, and a local rerun
// over that cache is byte-identical to an uninterrupted run.
func TestRunSpecRemoteShardedCancelStoresLandedCells(t *testing.T) {
	spec := remoteTestSpec()
	want, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := cache.NewMemory()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, runErr := RunSpec(ctx, spec, Config{
		Workers:  2,
		Cache:    c,
		Remote:   &fakeRemote{takes: func(i int, _ CellJob) bool { return i%2 == 0 }, shard: 1},
		OnResult: cancelAfterFirstCell(spec.Trials, cancel),
	})
	if runErr == nil {
		t.Fatal("cancelled remote run reported no error")
	}
	stored := storedCompletedCells(t, spec, c, partial)
	cells, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cj := range cells {
		data, ok, err := c.Get(cj.Key)
		if err != nil || !ok {
			continue
		}
		if _, err := DecodeCellEntry(data, cj.Cell, spec.Trials); err != nil {
			t.Errorf("cached %s does not hold its %d trials: %v", cj.Cell, spec.Trials, err)
		}
	}

	rerun, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.CacheHits != len(stored)*spec.Trials || rerun.Executed+rerun.CacheHits != rerun.Jobs {
		t.Errorf("rerun: %d cache hits + %d executed, want %d hits of %d jobs",
			rerun.CacheHits, rerun.Executed, len(stored)*spec.Trials, rerun.Jobs)
	}
	if got, wantJSON := outcomeJSON(t, rerun), outcomeJSON(t, want); got != wantJSON {
		t.Errorf("rerun artifact differs from uninterrupted run:\n%s\nvs\n%s", got, wantJSON)
	}
}

// TestExecuteCellJobShard pins the worker-side shard semantics: a
// sub-range execution returns the entry of exactly the whole-cell run's
// round counts for those trials (a trial's stream depends on its index,
// not its company), and out-of-range bounds are errors.
func TestExecuteCellJobShard(t *testing.T) {
	spec := remoteTestSpec()
	cellJobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	job := cellJobs[0]
	wholeEntry, err := ExecuteCellJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeCellEntry(wholeEntry, job.Cell, job.Trials)
	if err != nil {
		t.Fatal(err)
	}
	shard := job
	shard.TrialLo, shard.TrialHi = 1, 3
	partEntry, err := ExecuteCellJob(context.Background(), shard)
	if err != nil {
		t.Fatalf("ExecuteCellJob shard [1,3): %v", err)
	}
	part, err := DecodeCellEntry(partEntry, job.Cell, 2)
	if err != nil {
		t.Fatalf("shard [1,3) entry: %v", err)
	}
	for i, r := range part {
		if r != whole[1+i] {
			t.Errorf("shard trial %d = %d, whole-cell %d", 1+i, r, whole[1+i])
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, job.Trials + 1}} {
		b := job
		b.TrialLo, b.TrialHi = bad[0], bad[1]
		if _, err := ExecuteCellJob(context.Background(), b); err == nil {
			t.Errorf("ExecuteCellJob with range [%d,%d) succeeded", bad[0], bad[1])
		}
	}
}

// TestRunSpecRemoteSkipsCachedCells: cells already in the cache are
// never offered to the remote scheduler, the rest are executed remotely,
// and the artifact is byte-identical to a local run.
func TestRunSpecRemoteSkipsCachedCells(t *testing.T) {
	spec := remoteTestSpec()
	want, err := RunSpec(context.Background(), spec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache with the grid's n=6 cells only.
	c := cache.NewMemory()
	warm := spec
	warm.Ns = []int{6}
	if _, err := RunSpec(context.Background(), warm, Config{Cache: c}); err != nil {
		t.Fatal(err)
	}
	cached := cachedCells(t, spec, c)
	if len(cached) == 0 {
		t.Fatal("warm-up stored nothing")
	}

	var offered []CellJob
	fresh := 0
	out, err := RunSpec(context.Background(), spec, Config{
		Workers: 2,
		Cache:   c,
		Remote: &fakeRemote{takes: func(_ int, job CellJob) bool {
			offered = append(offered, job) // called synchronously by Open
			return true
		}},
		OnResult: func(TrialResult) { fresh++ }, // serialized by the execution's mutex
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range offered {
		if cached[job.Cell] {
			t.Errorf("cached cell %s was passed to Remote.Open", job.Cell)
		}
	}
	if len(offered)+len(cached) != len(want.Cells) {
		t.Errorf("Remote.Open saw %d cells, want the %d uncached", len(offered), len(want.Cells)-len(cached))
	}
	if got, wantJSON := outcomeJSON(t, out), outcomeJSON(t, want); got != wantJSON {
		t.Errorf("remote artifact over a warm cache differs:\n%s\nvs\n%s", got, wantJSON)
	}
	if hits := len(cached) * spec.Trials; out.CacheHits != hits || fresh != out.Jobs-hits {
		t.Errorf("cache hits %d, OnResult saw %d fresh jobs; want %d and %d", out.CacheHits, fresh, hits, out.Jobs-hits)
	}
}

// TestRunSpecRemoteCancellation: cancelling a remote-backed run returns
// the cancellation error and marks unfinished jobs skipped, like the
// local pool does.
func TestRunSpecRemoteCancellation(t *testing.T) {
	spec := remoteTestSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work
	out, err := RunSpec(ctx, spec, Config{
		Workers: 1, Remote: &fakeRemote{takes: func(int, CellJob) bool { return false }},
	})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if out == nil || out.Completed != 0 {
		t.Fatalf("outcome = %+v, want zero completed", out)
	}
}

// TestCellJobsPlansWithoutJobs: CellJobs plans a spec's cells without
// building a job per trial, so its allocations grow with the cell count,
// not the trial count — campaignd's submit handler and the store's ingest
// path call it on untrusted specs.
func TestCellJobsPlansWithoutJobs(t *testing.T) {
	allocs := func(trials int) float64 {
		spec := Spec{Scenarios: named("random-tree"), Ns: []int{8}, Trials: trials, Seed: 1}
		return testing.AllocsPerRun(5, func() {
			if jobs, err := spec.CellJobs(); err != nil || len(jobs) != 1 || jobs[0].Trials != trials {
				t.Fatalf("CellJobs = %+v, %v; want one cell of %d trials", jobs, err, trials)
			}
		})
	}
	// A longer trial count in the cache key may cost a byte buffer; a job
	// per trial would cost ten million.
	if one, many := allocs(1), allocs(10_000_000); many > 2*one {
		t.Errorf("CellJobs allocates %v times for 10⁷ trials, %v for 1: want O(cells)", many, one)
	}
}

// TestCellJobsSelfContained: every CellJob's embedded spec recompiles —
// anywhere — to exactly its own cell, with the same content address the
// cache uses, and ExecuteCellJob rejects tampered addresses.
func TestCellJobsSelfContained(t *testing.T) {
	spec := remoteTestSpec()
	cellJobs, err := spec.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cellJobs) != len(cells) {
		t.Fatalf("CellJobs returned %d jobs for %d cells", len(cellJobs), len(cells))
	}
	for i, j := range cellJobs {
		if j.Key != cells[i].Key || j.Cell != cells[i].Cell || j.Trials != cells[i].Hi-cells[i].Lo {
			t.Errorf("cell job %d = %+v does not match plan %+v", i, j, cells[i])
		}
		entry, err := ExecuteCellJob(context.Background(), j)
		if err != nil {
			t.Fatalf("ExecuteCellJob(%s): %v", j.Cell, err)
		}
		if _, err := DecodeCellEntry(entry, j.Cell, j.Trials); err != nil {
			t.Errorf("ExecuteCellJob(%s) returned no entry of its %d trials: %v", j.Cell, j.Trials, err)
		}
	}
	// Tampered content address: the worker-side handshake must refuse.
	bad := cellJobs[0]
	bad.Key = "0000000000000000"
	if _, err := ExecuteCellJob(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "content address mismatch") {
		t.Errorf("tampered ExecuteCellJob err = %v, want content address mismatch", err)
	}
	// An invalid embedded spec is an error, not a panic.
	bad = cellJobs[0]
	bad.Spec.Trials = 0
	if _, err := ExecuteCellJob(context.Background(), bad); err == nil {
		t.Error("ExecuteCellJob with invalid spec succeeded")
	}
	if _, err := (&Spec{}).CellJobs(); err == nil {
		t.Error("CellJobs on an empty spec succeeded")
	}
}
