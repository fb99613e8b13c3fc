package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
)

// testSpec is the grid every byte-identity test runs: several cells,
// mixed families, small enough to finish in milliseconds locally.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name: "cluster-e2e",
		Scenarios: []campaign.Scenario{
			{Adversary: "random-tree"},
			{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
		},
		Ns:     []int{6, 8},
		Trials: 5,
		Seed:   42,
	}
}

// artifacts renders the outcome's JSON and JSONL artifacts.
func artifacts(t *testing.T, out *campaign.Outcome) (string, string) {
	t.Helper()
	var js, jl bytes.Buffer
	if err := out.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := out.WriteJSONL(&jl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return js.String(), jl.String()
}

// localArtifacts runs the spec purely locally and returns its artifacts,
// the reference bytes every cluster configuration must reproduce.
func localArtifacts(t *testing.T, spec campaign.Spec) (string, string) {
	t.Helper()
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatalf("local RunSpec: %v", err)
	}
	return artifacts(t, out)
}

// postJSON posts v and decodes the response body into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestLeaseVersionHandshake(t *testing.T) {
	c := New(Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "stale", Engine: "dyntreecast-engine/1"}, nil)
	if status != http.StatusConflict {
		t.Fatalf("stale engine lease: status %d, want %d", status, http.StatusConflict)
	}
	if got := c.Stats().LeasesRejected; got != 1 {
		t.Fatalf("LeasesRejected = %d, want 1", got)
	}
	// A version-matched worker with no open campaigns gets no content.
	status = postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "ok", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, nil)
	if status != http.StatusNoContent {
		t.Fatalf("idle lease: status %d, want %d", status, http.StatusNoContent)
	}
}

// TestLeaseEntryFormatHandshake: a worker that does not present the
// coordinator's entry format — one built before cell entries were binary
// sends none — is turned away with the engine-mismatch 409 before it
// computes anything, even while work is pending.
func TestLeaseEntryFormatHandshake(t *testing.T) {
	c := New(Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	sess, _, _, _ := openSession(t, c, testSpec())
	defer sess.Close()

	for _, req := range []LeaseRequest{
		{Worker: "json-pusher", Engine: campaign.EngineVersion},
		{Worker: "future", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat + 1},
	} {
		if status := postJSON(t, srv.URL+"/cluster/lease", req, nil); status != http.StatusConflict {
			t.Fatalf("lease with entry format %d: status %d, want %d", req.EntryFormat, status, http.StatusConflict)
		}
	}
	if s := c.Stats(); s.LeasesRejected != 2 || s.LeasesGranted != 0 {
		t.Fatalf("stats = %+v, want 2 rejections and no grant", s)
	}
}

// TestLegacyTrialsPushRequeued: a push in the JSON shape of older
// builds — per-trial measurements under "trials", no entry — is
// re-queued, never spliced; the shard stays leasable and a push with the
// entry completes it.
func TestLegacyTrialsPushRequeued(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	lease := func(worker string) LeaseResponse {
		var lr LeaseResponse
		if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: worker, Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lr); status != http.StatusOK {
			t.Fatalf("lease for %s: status %d", worker, status)
		}
		return lr
	}
	entry, err := campaign.ExecuteCellJob(context.Background(), jobs[0])
	if err != nil {
		t.Fatalf("ExecuteCellJob: %v", err)
	}
	rounds, err := campaign.DecodeCellEntry(entry, jobs[0].Cell, jobs[0].Trials)
	if err != nil {
		t.Fatal(err)
	}
	legacyTrials := make([][]map[string]any, len(rounds))
	for i, r := range rounds {
		legacyTrials[i] = []map[string]any{{"cell": jobs[0].Cell, "value": r}}
	}
	legacy := map[string]any{"lease_id": lease("old").LeaseID, "worker": "old", "key": jobs[0].Key, "trials": legacyTrials}
	var ack ResultAck
	postJSON(t, srv.URL+"/cluster/results", legacy, &ack)
	if ack.Accepted {
		t.Fatal("legacy trials push was accepted")
	}
	mu.Lock()
	deliveries := len(*got)
	mu.Unlock()
	if deliveries != 0 {
		t.Fatalf("legacy push delivered %d times, want none", deliveries)
	}

	honest := lease("new")
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: honest.LeaseID, Worker: "new", Key: jobs[0].Key, Entry: entry}, &ack)
	if !ack.Accepted {
		t.Fatalf("entry push rejected: %s", ack.Reason)
	}
	if s := c.Stats(); s.Requeued != 1 || s.RemoteCells != 1 {
		t.Fatalf("stats = %+v, want 1 requeue and 1 remote cell", s)
	}
}

// openSession registers the spec's cells on the coordinator and records
// remote deliveries.
type delivery struct {
	key    string
	lo, hi int
	rounds []uint32
}

func openSession(t *testing.T, c *Coordinator, spec campaign.Spec) (campaign.RemoteSession, []campaign.CellJob, *[]delivery, *sync.Mutex) {
	t.Helper()
	jobs, err := spec.CellJobs()
	if err != nil {
		t.Fatalf("CellJobs: %v", err)
	}
	var mu sync.Mutex
	var got []delivery
	sess := c.Open(jobs, func(key string, lo, hi int, rounds []uint32) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, delivery{key, lo, hi, rounds})
	})
	return sess, jobs, &got, &mu
}

func TestLeaseExpiryReissueAndStaleDrop(t *testing.T) {
	c := New(Options{LeaseTTL: 40 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	var leaseA LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "a", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &leaseA); status != http.StatusOK {
		t.Fatalf("lease A: status %d", status)
	}
	// Worker a dies silently. After the TTL the same cell is re-issued.
	time.Sleep(60 * time.Millisecond)
	var leaseB LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "b", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &leaseB); status != http.StatusOK {
		t.Fatalf("lease B after expiry: status %d", status)
	}
	if leaseB.Job.Key != leaseA.Job.Key {
		t.Fatalf("re-issued lease is for %s, want %s", leaseB.Job.Cell, leaseA.Job.Cell)
	}
	if leaseB.LeaseID == leaseA.LeaseID {
		t.Fatalf("re-issue reused lease id %s", leaseA.LeaseID)
	}

	entry, err := campaign.ExecuteCellJob(context.Background(), leaseB.Job)
	if err != nil {
		t.Fatalf("ExecuteCellJob: %v", err)
	}
	var ack ResultAck
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: leaseB.LeaseID, Worker: "b", Key: leaseB.Job.Key, Entry: entry}, &ack)
	if !ack.Accepted {
		t.Fatalf("fresh push rejected: %s", ack.Reason)
	}
	// Worker a resurrects and pushes the same (byte-identical) cell under
	// its superseded lease: acknowledged, dropped, harmless.
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: leaseA.LeaseID, Worker: "a", Key: leaseA.Job.Key, Entry: entry}, &ack)
	if ack.Accepted {
		t.Fatalf("stale push was accepted")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 1 || (*got)[0].key != jobs[0].Key || len((*got)[0].rounds) != jobs[0].Trials {
		t.Fatalf("deliveries = %+v, want exactly one full delivery of %s", *got, jobs[0].Cell)
	}
	if s := c.Stats(); s.RemoteCells != 1 || s.Requeued != 1 {
		t.Fatalf("stats = %+v, want 1 remote cell and 1 requeue", s)
	}
}

func TestWorkerKillMidCellLocalSteal(t *testing.T) {
	c := New(Options{LeaseTTL: 40 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	var lease LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "doomed", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lease); status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}
	// The worker dies mid-cell: no push ever arrives. The local pool
	// blocks on the active lease, then steals the cell at expiry.
	start := time.Now()
	job, ok := sess.ClaimLocal(context.Background())
	if !ok {
		t.Fatalf("ClaimLocal returned false")
	}
	if job.Key != jobs[0].Key {
		t.Fatalf("stole %s, want %s", job.Cell, jobs[0].Cell)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("local steal after %s, want to block until near lease expiry", waited)
	}
	lo, hi := job.ShardBounds()
	if !sess.CompleteLocal(job.Key, lo, hi) {
		t.Fatalf("CompleteLocal lost a cell nobody else completed")
	}
	// A locally completed cell is never remote-delivered, and the dead
	// worker's lease is gone: a late push misses.
	var ack ResultAck
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lease.LeaseID, Worker: "doomed", Key: lease.Job.Key, Entry: nil}, &ack)
	if ack.Accepted {
		t.Fatalf("push under stolen lease was accepted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 0 {
		t.Fatalf("deliveries = %+v, want none for a locally completed cell", *got)
	}
}

func TestResultValidationRequeues(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute}) // long TTL: only validation can requeue
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	lease := func(worker string) LeaseResponse {
		var lr LeaseResponse
		if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: worker, Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lr); status != http.StatusOK {
			t.Fatalf("lease for %s: status %d", worker, status)
		}
		return lr
	}
	push := func(lr LeaseResponse, p ResultPush) ResultAck {
		var ack ResultAck
		p.LeaseID = lr.LeaseID
		postJSON(t, srv.URL+"/cluster/results", p, &ack)
		return ack
	}

	entry, err := campaign.ExecuteCellJob(context.Background(), jobs[0])
	if err != nil {
		t.Fatalf("ExecuteCellJob: %v", err)
	}
	// The entry of the cell's first two trials, and a whole-cell entry
	// of a foreign cell with the same trial count.
	short := jobs[0]
	short.TrialLo, short.TrialHi = 0, 2
	shortEntry, err := campaign.ExecuteCellJob(context.Background(), short)
	if err != nil {
		t.Fatalf("ExecuteCellJob [0,2): %v", err)
	}
	foreign := testSpec()
	foreign.Ns, foreign.Scenarios = []int{8}, foreign.Scenarios[:1]
	foreignJobs, err := foreign.CellJobs()
	if err != nil {
		t.Fatal(err)
	}
	foreignEntry, err := campaign.ExecuteCellJob(context.Background(), foreignJobs[0])
	if err != nil {
		t.Fatalf("ExecuteCellJob %s: %v", foreignJobs[0].Cell, err)
	}

	// Worker-reported error: the cell goes back in the pool immediately.
	if ack := push(lease("erroring"), ResultPush{Key: jobs[0].Key, Error: "simulated crash"}); ack.Accepted {
		t.Fatalf("error push was accepted")
	}
	// Content-address mismatch: rejected and re-queued.
	if ack := push(lease("confused"), ResultPush{Key: "deadbeef", Entry: entry}); ack.Accepted {
		t.Fatalf("mismatched-key push was accepted")
	}
	// Trial-count mismatch: rejected and re-queued.
	if ack := push(lease("truncating"), ResultPush{Key: jobs[0].Key, Entry: shortEntry}); ack.Accepted {
		t.Fatalf("short push was accepted")
	}
	// An entry labeled with a foreign cell: rejected and re-queued.
	if ack := push(lease("mislabeling"), ResultPush{Key: jobs[0].Key, Entry: foreignEntry}); ack.Accepted {
		t.Fatalf("mislabeled push was accepted")
	}
	// After four bad pushes the cell is still leasable, and a valid push
	// completes it.
	if ack := push(lease("honest"), ResultPush{Key: jobs[0].Key, Entry: entry}); !ack.Accepted {
		t.Fatalf("valid push rejected: %s", ack.Reason)
	}
	mu.Lock()
	deliveries := len(*got)
	mu.Unlock()
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", deliveries)
	}
	if s := c.Stats(); s.Requeued != 4 || s.RemoteCells != 1 {
		t.Fatalf("stats = %+v, want 4 requeues and 1 remote cell", s)
	}
}

// startWorkers runs n in-process cluster workers against url until the
// returned stop function is called.
func startWorkers(t *testing.T, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := RunWorker(ctx, url, WorkerOptions{
				ID:   fmt.Sprintf("test-worker-%d", id),
				Poll: 5 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("worker %d: %v", id, err)
			}
		}(i)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// killerWorker leases up to max cells and abandons every one of them —
// the pathological worker the lease lifecycle must absorb. It reports
// nothing and tolerates a coordinator that has already gone away, since
// it races the test body.
func killerWorker(url string, max int) {
	body, _ := json.Marshal(LeaseRequest{Worker: "killer", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat})
	for i := 0; i < max; i++ {
		resp, err := http.Post(url+"/cluster/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestClusterEndToEndByteIdentity is the acceptance test of the fabric:
// one coordinator plus two in-process workers (and one lease-abandoning
// killer) produce JSON and JSONL artifacts byte-identical to a purely
// local run — with the dir cache enabled, when the first clustered run
// is killed partway and resumed from the cache.
func TestClusterEndToEndByteIdentity(t *testing.T) {
	clusterEndToEnd(t, Options{LeaseTTL: 80 * time.Millisecond})
}

// TestShardedClusterEndToEndByteIdentity reruns the full e2e — two
// workers, a killer that leases shards and dies mid-shard, kill-and-
// resume from the cache — with every cell split into 2-trial
// shards. The artifacts must still match the purely local run byte for
// byte: the shard size is pure scheduling.
func TestShardedClusterEndToEndByteIdentity(t *testing.T) {
	clusterEndToEnd(t, Options{LeaseTTL: 80 * time.Millisecond, ShardTrials: 2})
}

func clusterEndToEnd(t *testing.T, opts Options) {
	spec := testSpec()
	wantJSON, wantJSONL := localArtifacts(t, spec)

	c := New(opts)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		killerWorker(srv.URL, 3)
	}()
	defer func() { <-killed }()

	dir := t.TempDir()
	store, err := cache.NewDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatalf("cache.NewDir: %v", err)
	}

	// Phase 1: clustered run over the cache, killed after a few results
	// land. Every cell that completed before the kill is already stored.
	ctx, cancel := context.WithCancel(context.Background())
	cfg := campaign.Config{Workers: 2, Remote: c, Cache: store}
	cfg.Progress = func(done, total int) {
		if done >= total/3 {
			cancel()
		}
	}
	_, runErr := campaign.RunSpec(ctx, spec, cfg)
	cancel()
	if runErr == nil {
		// The whole grid may legitimately finish before the kill lands on
		// a fast machine; the resume below then serves everything.
		t.Logf("phase 1 finished before cancellation")
	}

	// Phase 2: resume from the cache under the same cluster; the final
	// artifact must be byte-identical to the uninterrupted local run.
	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2, Remote: c, Cache: store})
	if err != nil {
		t.Fatalf("resumed clustered RunSpec: %v", err)
	}
	if out.Executed+out.CacheHits != out.Jobs {
		t.Fatalf("resume executed %d + %d from cache, want %d jobs", out.Executed, out.CacheHits, out.Jobs)
	}
	gotJSON, gotJSONL := artifacts(t, out)
	if gotJSON != wantJSON {
		t.Fatalf("clustered JSON artifact differs from local run:\n--- local ---\n%s\n--- cluster ---\n%s", wantJSON, gotJSON)
	}
	if gotJSONL != wantJSONL {
		t.Fatalf("clustered JSONL artifact differs from local run:\n--- local ---\n%s\n--- cluster ---\n%s", wantJSONL, gotJSONL)
	}

	// Phase 3: now fully warm — nothing executes, bytes still identical.
	out, err = campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2, Remote: c, Cache: store})
	if err != nil {
		t.Fatalf("warm clustered RunSpec: %v", err)
	}
	if out.Executed != 0 {
		t.Fatalf("warm rerun executed %d jobs, want 0", out.Executed)
	}
	gotJSON, gotJSONL = artifacts(t, out)
	if gotJSON != wantJSON || gotJSONL != wantJSONL {
		t.Fatalf("warm clustered artifacts differ from local run")
	}
}

// TestClusterVersionMismatchDoesNotChangeBytes runs a campaign on a
// coordinator whose only would-be worker speaks a different engine
// version: the worker is rejected at the handshake and the local pool
// produces the artifact alone, byte-identical to a plain local run.
func TestClusterVersionMismatchDoesNotChangeBytes(t *testing.T) {
	spec := testSpec()
	wantJSON, _ := localArtifacts(t, spec)

	c := New(Options{LeaseTTL: 50 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 10; i++ {
			status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "stale", Engine: "dyntreecast-engine/2"}, nil)
			if status != http.StatusConflict {
				t.Errorf("stale worker lease: status %d, want %d", status, http.StatusConflict)
				return
			}
		}
	}()

	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2, Remote: c})
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	<-stop
	gotJSON, _ := artifacts(t, out)
	if gotJSON != wantJSON {
		t.Fatalf("artifact differs after version-mismatch rejections")
	}
	if s := c.Stats(); s.LeasesRejected == 0 || s.RemoteCells != 0 {
		t.Fatalf("stats = %+v, want rejections and zero remote cells", s)
	}
}

// TestClusterWorkersActuallyExecute pins that the protocol does real
// work: with slow local claiming disabled (zero local workers is not a
// mode, so we use one) and fast-polling workers, at least one cell goes
// through the remote path on any but the most pathological scheduling.
// The assertion is on the sum of both paths — every cell exactly once —
// plus byte identity, which holds regardless of the split.
func TestClusterWorkersActuallyExecute(t *testing.T) {
	spec := testSpec()
	spec.Trials = 40 // enough work per cell that workers get a look-in
	wantJSON, _ := localArtifacts(t, spec)

	c := New(Options{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	stop := startWorkers(t, srv.URL, 2)
	defer stop()

	out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 1, Remote: c})
	if err != nil {
		t.Fatalf("clustered RunSpec: %v", err)
	}
	gotJSON, _ := artifacts(t, out)
	if gotJSON != wantJSON {
		t.Fatalf("clustered artifact differs from local run")
	}
	if out.Completed != out.Jobs {
		t.Fatalf("completed %d of %d jobs", out.Completed, out.Jobs)
	}
	t.Logf("cluster stats: %+v", c.Stats())
}

// TestRunWorkerExecutesLeasedCell is the deterministic worker-side unit:
// with no local pool claiming anything, only the worker can complete the
// session's single cell — lease, execute, push, deliver.
func TestRunWorkerExecutesLeasedCell(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, srv.URL, WorkerOptions{ID: "solo", Poll: 5 * time.Millisecond})
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(*got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never delivered the cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if (*got)[0].key != jobs[0].Key || len((*got)[0].rounds) != jobs[0].Trials {
		t.Fatalf("delivery = %+v, want full %s", (*got)[0], jobs[0].Cell)
	}
	if s := c.Stats(); s.RemoteCells != 1 || s.LeasesGranted != 1 {
		t.Fatalf("stats = %+v, want exactly one granted lease and one remote cell", s)
	}
}

// TestRunWorkerVersionRejection: a coordinator that speaks a different
// engine version turns the handshake into a prompt worker error, not a
// retry loop.
func TestRunWorkerVersionRejection(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]string{"error": "engine version mismatch: simulated"})
	}))
	defer reject.Close()
	err := RunWorker(context.Background(), reject.URL, WorkerOptions{Poll: time.Millisecond})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("rejected")) {
		t.Fatalf("err = %v, want handshake rejection", err)
	}
}

// TestRunWorkerUnreachableCoordinator: a dead coordinator address errors
// out after bounded retries instead of spinning forever.
func TestRunWorkerUnreachableCoordinator(t *testing.T) {
	err := RunWorker(context.Background(), "127.0.0.1:1", WorkerOptions{Poll: time.Millisecond})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("unreachable")) {
		t.Fatalf("err = %v, want unreachable-coordinator error", err)
	}
}

// TestRunWorkerStopsCleanlyWhenCoordinatorGoes: a worker that reached
// its coordinator treats the coordinator later vanishing (a one-shot
// cmd/campaign -join run finishing) as a clean stop, not an error.
func TestRunWorkerStopsCleanlyWhenCoordinatorGoes(t *testing.T) {
	c := New(Options{})
	srv := httptest.NewServer(c.Handler())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), srv.URL, WorkerOptions{
			ID: "orphan", Poll: time.Millisecond, ReconnectWindow: 50 * time.Millisecond,
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the worker poll (204s) a few times
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWorker after coordinator shutdown: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop after coordinator went away")
	}
}

// TestDuplicateCellsInGrid is the regression test for grids listing the
// same cell twice (ns: [6, 6]): the duplicate plans share one content
// address, must be offered to the scheduler exactly once, executed once,
// and spliced into both plans' jobs — never deadlocking the session.
func TestDuplicateCellsInGrid(t *testing.T) {
	spec := testSpec()
	spec.Ns = []int{6, 6, 8}
	wantJSON, _ := localArtifacts(t, spec)

	c := New(Options{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	stop := startWorkers(t, srv.URL, 1)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := campaign.RunSpec(ctx, spec, campaign.Config{Workers: 2, Remote: c})
	if err != nil {
		t.Fatalf("clustered RunSpec with duplicate cells: %v", err)
	}
	if out.Completed != out.Jobs {
		t.Fatalf("completed %d of %d jobs", out.Completed, out.Jobs)
	}
	gotJSON, _ := artifacts(t, out)
	if gotJSON != wantJSON {
		t.Fatalf("duplicate-cell clustered artifact differs from local run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

// TestLatePushAfterExpiryStillCounts: a worker that outlives its lease
// (no renewal protocol) still contributes — while the cell is
// incomplete, its push is accepted by content address.
func TestLatePushAfterExpiryStillCounts(t *testing.T) {
	c := New(Options{LeaseTTL: 30 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	var lease LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "slow", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lease); status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}
	entry, err := campaign.ExecuteCellJob(context.Background(), lease.Job)
	if err != nil {
		t.Fatalf("ExecuteCellJob: %v", err)
	}
	time.Sleep(60 * time.Millisecond) // outlive the lease; nobody else claims
	var ack ResultAck
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lease.LeaseID, Worker: "slow", Key: lease.Job.Key, Entry: entry}, &ack)
	if !ack.Accepted {
		t.Fatalf("late push for an incomplete cell rejected: %s", ack.Reason)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 1 || (*got)[0].key != jobs[0].Key {
		t.Fatalf("deliveries = %+v, want the late cell", *got)
	}
	// And a second (duplicate) late push is dropped: the cell is done.
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lease.LeaseID, Worker: "slow", Key: lease.Job.Key, Entry: entry}, &ack)
	if ack.Accepted {
		t.Fatalf("duplicate late push was accepted")
	}
}

// TestShardedLeasesCoverCell: with ShardTrials=2 a 5-trial cell is
// leased as [0,2), [2,4), [4,5) — three distinct leases whose jobs carry
// the bounds — and each out-of-order push delivers exactly its range.
func TestShardedLeasesCoverCell(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute, ShardTrials: 2})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell, 5 trials
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	wantRanges := [][2]int{{0, 2}, {2, 4}, {4, 5}}
	leases := make([]LeaseResponse, 0, len(wantRanges))
	for i, want := range wantRanges {
		var lr LeaseResponse
		if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: fmt.Sprintf("w%d", i), Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lr); status != http.StatusOK {
			t.Fatalf("lease %d: status %d", i, status)
		}
		if lo, hi := lr.Job.ShardBounds(); lo != want[0] || hi != want[1] {
			t.Fatalf("lease %d covers [%d,%d), want [%d,%d)", i, lo, hi, want[0], want[1])
		}
		leases = append(leases, lr)
	}
	// Every shard is under an active lease: the next request gets 204.
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "idle", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, nil); status != http.StatusNoContent {
		t.Fatalf("fourth lease: status %d, want 204", status)
	}
	// Push the shards out of order; each delivery carries its own range.
	for _, i := range []int{2, 0, 1} {
		lr := leases[i]
		entry, err := campaign.ExecuteCellJob(context.Background(), lr.Job)
		if err != nil {
			t.Fatalf("ExecuteCellJob shard %d: %v", i, err)
		}
		var ack ResultAck
		postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lr.LeaseID, Worker: "w", Key: lr.Job.Key,
			TrialLo: lr.Job.TrialLo, TrialHi: lr.Job.TrialHi, Entry: entry}, &ack)
		if !ack.Accepted {
			t.Fatalf("shard %d push rejected: %s", i, ack.Reason)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[[2]int]int{}
	for _, d := range *got {
		if d.key != jobs[0].Key || len(d.rounds) != d.hi-d.lo {
			t.Fatalf("delivery %+v malformed for %s", d, jobs[0].Cell)
		}
		seen[[2]int{d.lo, d.hi}]++
	}
	for _, want := range wantRanges {
		if seen[want] != 1 {
			t.Fatalf("range %v delivered %d times, want once (deliveries %+v)", want, seen[want], *got)
		}
	}
	if s := c.Stats(); s.LeasesGranted != 3 || s.RemoteCells != 3 || s.Requeued != 0 {
		t.Fatalf("stats = %+v, want 3 granted and 3 completed shard leases", s)
	}
}

// TestShardedWholeCellPushRequeued: a pre-sharding worker answering a
// sharded lease pushes the whole cell with no bounds echo — the
// coordinator re-queues the shard instead of splicing the wrong trials,
// and a bounds-echoing push then completes it with exactly the bytes the
// whole-cell run produces for that range.
func TestShardedWholeCellPushRequeued(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute, ShardTrials: 3})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := testSpec()
	spec.Ns, spec.Scenarios = []int{6}, spec.Scenarios[:1] // one cell: shards [0,3), [3,5)
	sess, jobs, got, mu := openSession(t, c, spec)
	defer sess.Close()

	var lr LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "old", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lr); status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}
	if lo, hi := lr.Job.ShardBounds(); lo != 0 || hi != 3 {
		t.Fatalf("lease covers [%d,%d), want [0,3)", lo, hi)
	}
	wholeEntry, err := campaign.ExecuteCellJob(context.Background(), jobs[0])
	if err != nil {
		t.Fatalf("ExecuteCellJob whole cell: %v", err)
	}
	whole, err := campaign.DecodeCellEntry(wholeEntry, jobs[0].Cell, jobs[0].Trials)
	if err != nil {
		t.Fatal(err)
	}
	var ack ResultAck
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lr.LeaseID, Worker: "old", Key: lr.Job.Key, Entry: wholeEntry}, &ack)
	if ack.Accepted || !strings.Contains(ack.Reason, "trial range mismatch") {
		t.Fatalf("whole-cell push against a shard lease: ack %+v, want range-mismatch requeue", ack)
	}

	// The shard went back in the pool: re-lease and push with bounds.
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "new", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lr); status != http.StatusOK {
		t.Fatalf("re-lease: status %d", status)
	}
	if lo, hi := lr.Job.ShardBounds(); lo != 0 || hi != 3 {
		t.Fatalf("re-lease covers [%d,%d), want the re-queued [0,3)", lo, hi)
	}
	part, err := campaign.ExecuteCellJob(context.Background(), lr.Job)
	if err != nil {
		t.Fatalf("ExecuteCellJob shard: %v", err)
	}
	postJSON(t, srv.URL+"/cluster/results", ResultPush{LeaseID: lr.LeaseID, Worker: "new", Key: lr.Job.Key,
		TrialLo: lr.Job.TrialLo, TrialHi: lr.Job.TrialHi, Entry: part}, &ack)
	if !ack.Accepted {
		t.Fatalf("shard push rejected: %s", ack.Reason)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 1 || (*got)[0].lo != 0 || (*got)[0].hi != 3 {
		t.Fatalf("deliveries = %+v, want exactly [0,3)", *got)
	}
	// Shard bytes ≡ the whole-cell run's bytes for the same trials.
	for i, m := range (*got)[0].rounds {
		if m != whole[i] {
			t.Fatalf("shard trial %d = %+v, whole-cell %+v", i, m, whole[i])
		}
	}
	if s := c.Stats(); s.Requeued != 1 || s.RemoteCells != 1 {
		t.Fatalf("stats = %+v, want 1 requeue and 1 completed shard", s)
	}
}
