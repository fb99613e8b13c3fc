package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/metrics"
)

// TestWorkerBookBounds: worker identities arrive over the unauthenticated
// cluster protocol, so the coordinator's book must stay bounded — an
// identity idle for workerExpiry lease TTLs is forgotten (its metric
// series retired with it), and a peer cycling fresh names can never push
// the book past maxWorkers.
func TestWorkerBookBounds(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	now := time.Now()
	c.now = func() time.Time { return now }

	c.mu.Lock()
	c.seen("idle-worker", "dyntreecast-engine/0")
	c.mu.Unlock()

	// Advance past the idle cutoff: the next new identity sweeps it out.
	now = now.Add(workerExpiry*time.Minute + time.Second)
	c.mu.Lock()
	c.seen("fresh", "")
	c.mu.Unlock()
	if ws := c.Workers(); len(ws) != 1 || ws[0].Worker != "fresh" {
		t.Fatalf("workers after expiry = %+v, want only fresh", ws)
	}
	var b strings.Builder
	if err := metrics.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `worker="idle-worker"`) {
		t.Errorf("expired worker's metric series still exposed:\n%s", b.String())
	}

	// Name cycling: the book caps at maxWorkers no matter how many
	// identities one peer invents.
	c.mu.Lock()
	for i := 0; i < maxWorkers+100; i++ {
		c.seen(fmt.Sprintf("cycler-%d", i), "")
	}
	n := len(c.workers)
	c.mu.Unlock()
	if n > maxWorkers {
		t.Fatalf("worker book = %d entries, want <= %d", n, maxWorkers)
	}
}

// TestWorkersEndpoint: the coordinator's per-worker book is served on
// GET /cluster/workers — a version-rejected worker shows up flagged, a
// leasing worker shows its grant and active-lease counts, and after its
// push lands the book records the acceptance and the push time.
func TestWorkersEndpoint(t *testing.T) {
	c := New(Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	getWorkers := func() []WorkerInfo {
		t.Helper()
		resp, err := http.Get(srv.URL + "/cluster/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/cluster/workers: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		var out []WorkerInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if ws := getWorkers(); len(ws) != 0 {
		t.Fatalf("fresh coordinator lists %d workers, want 0", len(ws))
	}

	// A stale-engine worker is rejected but still lands in the book,
	// flagged, so a fleet operator can see who needs redeploying.
	postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "stale", Engine: "dyntreecast-engine/0"}, nil)

	sess, _, got, mu := openSession(t, c, testSpec())
	defer sess.Close()

	var lease LeaseResponse
	if status := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "w1", Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat}, &lease); status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}

	ws := getWorkers()
	if len(ws) != 2 {
		t.Fatalf("workers = %d, want 2 (stale + w1)", len(ws))
	}
	// Sorted by name: "stale" < "w1".
	if ws[0].Worker != "stale" || !ws[0].VersionRejected {
		t.Errorf("row 0 = %+v, want version-rejected %q", ws[0], "stale")
	}
	if ws[0].LastSeen.IsZero() {
		t.Errorf("rejected worker has no last_seen")
	}
	w1 := ws[1]
	if w1.Worker != "w1" || w1.LeasesGranted != 1 || w1.LeasesActive != 1 {
		t.Errorf("row 1 = %+v, want w1 with 1 granted / 1 active", w1)
	}
	if w1.PushesAccepted != 0 || !w1.LastPush.IsZero() {
		t.Errorf("w1 shows pushes before any: %+v", w1)
	}

	// Execute the leased cell for real and push: the book must record
	// the acceptance, release the active lease, and stamp last_push.
	res, err := campaign.ExecuteCellJob(context.Background(), lease.Job)
	if err != nil {
		t.Fatalf("ExecuteCellJob: %v", err)
	}
	status := postJSON(t, srv.URL+"/cluster/results", ResultPush{
		LeaseID: lease.LeaseID, Worker: "w1", Key: lease.Job.Key, Entry: res,
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("push: status %d", status)
	}
	mu.Lock()
	deliveries := len(*got)
	mu.Unlock()
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", deliveries)
	}

	ws = getWorkers()
	w1 = ws[1]
	if w1.PushesAccepted != 1 || w1.LeasesActive != 0 || w1.LastPush.IsZero() {
		t.Errorf("after push: %+v, want 1 accepted, 0 active, last_push set", w1)
	}
}
