package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
)

const specJSON = `{"name":"itest","scenarios":[{"adversary":"random-tree"},{"adversary":"random-path"}],"ns":[8,16],"trials":4,"seed":21}`

func mustSpec(t *testing.T) campaign.Spec {
	t.Helper()
	spec, err := campaign.LoadSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func submit(t *testing.T, ts *httptest.Server, body string) (id string, jobs int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, out.Jobs
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var v statusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v := getStatus(t, ts, id)
		if v.Status != "running" {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return statusView{}
}

// TestSubmitStreamFetch is the submit → stream → fetch integration pass
// over real HTTP: every job's measurement arrives on the stream, the
// stream terminates with a done record, and the final aggregates equal a
// direct in-process run of the same spec.
func TestSubmitStreamFetch(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()

	id, jobs := submit(t, ts, specJSON)
	if jobs != 2*2*4 {
		t.Fatalf("jobs = %d, want 16", jobs)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	results := 0
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if done, _ := rec["done"].(bool); done {
			sawDone = true
			if rec["status"] != "done" {
				t.Errorf("done record status = %v", rec["status"])
			}
			break
		}
		if rec["cell"] == "" || rec["error"] != nil {
			t.Errorf("unexpected stream record: %v", rec)
		}
		results++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != jobs || !sawDone {
		t.Fatalf("stream delivered %d results (done=%v), want %d", results, sawDone, jobs)
	}

	v := waitDone(t, ts, id)
	if v.Status != "done" || v.Completed != jobs || v.Failed != 0 {
		t.Fatalf("final status: %+v", v)
	}
	direct, err := campaign.RunSpec(context.Background(), mustSpec(t), campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Cells, direct.Cells) {
		t.Errorf("served aggregates differ from direct run:\n%+v\nvs\n%+v", v.Cells, direct.Cells)
	}
}

func TestStreamSSE(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()
	id, jobs := submit(t, ts, specJSON)

	req, _ := http.NewRequest("GET", ts.URL+"/campaigns/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(body, []byte("event: result\n")); n != jobs {
		t.Errorf("SSE result events = %d, want %d", n, jobs)
	}
	if !bytes.Contains(body, []byte("event: done\n")) {
		t.Error("SSE stream missing done event")
	}
}

func TestLateStreamReplays(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()
	id, jobs := submit(t, ts, specJSON)
	waitDone(t, ts, id)

	// Subscribing after completion must still deliver the full history.
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != jobs+1 {
		t.Errorf("late stream delivered %d lines, want %d results + 1 done", len(lines), jobs)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, body := range []string{
		"not json",
		`{"scenarios":[{"adversary":"omniscient"}],"ns":[8],"trials":1,"seed":1}`,
		`{"scenarios":[{"adversary":"random-tree"}],"ns":[8],"trials":1,"seed":1,"bogus":true}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%q) = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestStatusNotFound(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, path := range []string{"/campaigns/nope", "/campaigns/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestListCampaigns(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()
	id1, _ := submit(t, ts, specJSON)
	id2, _ := submit(t, ts, `{"scenarios":[{"adversary":"static-path"}],"ns":[8],"trials":2,"seed":1}`)
	waitDone(t, ts, id1)
	waitDone(t, ts, id2)

	resp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []statusView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].ID != id1 || views[1].ID != id2 {
		t.Errorf("list = %+v", views)
	}
}

// TestServerSharesCellCache: two submissions of the same spec through a
// cache-equipped server serve the second from the cell cache.
func TestServerSharesCellCache(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2, Cache: cache.NewMemory()}))
	defer ts.Close()
	id1, _ := submit(t, ts, specJSON)
	v1 := waitDone(t, ts, id1)
	id2, _ := submit(t, ts, specJSON)
	v2 := waitDone(t, ts, id2)
	if !reflect.DeepEqual(v1.Cells, v2.Cells) {
		t.Errorf("cached rerun served different aggregates")
	}
}

// restartSpec has a quick first cell and a slow second one, so a
// shutdown timed off the stream lands after the first cell completed.
const restartSpec = `{"name":"restart","scenarios":[{"adversary":"random-tree"}],"ns":[8,256],"trials":1000,"seed":8}`

// shutdownAfterFirstCell submits restartSpec to a one-worker server
// backed by c, follows the stream until a second cell's result arrives —
// the first cell's trials have then all run — and shuts the server down.
// It returns the campaign's id.
func shutdownAfterFirstCell(t *testing.T, c cache.Cache) (*Server, *httptest.Server, string) {
	t.Helper()
	srv := New(Options{Workers: 1, Cache: c})
	ts := httptest.NewServer(srv)
	id, _ := submit(t, ts, restartSpec)
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	first := ""
	for sc.Scan() {
		var ev struct {
			Cell string `json:"cell"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Cell == "" {
			continue
		}
		if first == "" {
			first = ev.Cell
		} else if ev.Cell != first {
			break
		}
	}
	resp.Body.Close()
	if first == "" {
		t.Fatal("no stream output before shutdown")
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelWait()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	return srv, ts, id
}

// artifactOf returns the JSON artifact of a finished campaign.
func artifactOf(t *testing.T, srv *Server, id string) []byte {
	t.Helper()
	srv.mu.Lock()
	r := srv.campaigns[id]
	srv.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf bytes.Buffer
	if err := r.outcome.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGracefulShutdownCachesCompletedCells: shutting the server down
// mid-campaign leaves every completed cell in the shared cache and
// refuses new submissions; rerunning the spec over that cache serves
// those cells from it and yields an artifact byte-identical to an
// uninterrupted run.
func TestGracefulShutdownCachesCompletedCells(t *testing.T) {
	c := cache.NewMemory()
	srv, ts, id := shutdownAfterFirstCell(t, c)
	defer ts.Close()
	t.Logf("interrupted campaign: %s", srv.campaigns[id].statusLine())

	// New submissions must be refused.
	post, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown = %d, want 503", post.StatusCode)
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after graceful shutdown")
	}

	spec, err := campaign.LoadSpec(strings.NewReader(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits == 0 || resumed.Executed+resumed.CacheHits != resumed.Jobs {
		t.Errorf("rerun: %d executed + %d from cache, want %d jobs with hits > 0",
			resumed.Executed, resumed.CacheHits, resumed.Jobs)
	}
	uninterrupted, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := resumed.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := uninterrupted.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("resumed artifact differs from uninterrupted run")
	}
}

// TestServerResumesAcrossRestart: a daemon that shut down mid-campaign
// resumes the work when the same spec is submitted to a fresh server
// sharing the cache — its completion log reports the cells served from
// the cache, and its artifact is byte-identical to an uninterrupted run.
func TestServerResumesAcrossRestart(t *testing.T) {
	c := cache.NewMemory()
	_, ts1, _ := shutdownAfterFirstCell(t, c)
	ts1.Close()

	var (
		logMu     sync.Mutex
		cacheHits = -1
		doneLine  = regexp.MustCompile(`: done \(.*, (\d+) from cache,`)
	)
	srv2 := New(Options{Workers: 2, Cache: c, Logf: func(format string, args ...any) {
		if m := doneLine.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
			logMu.Lock()
			cacheHits, _ = strconv.Atoi(m[1])
			logMu.Unlock()
		}
	}})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	id2, jobs := submit(t, ts2, restartSpec)
	v := waitDone(t, ts2, id2)
	if v.Status != "done" || v.Completed != jobs {
		t.Fatalf("restarted campaign: %+v", v)
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelWait()
	if err := srv2.Shutdown(ctx); err != nil { // waits for the completion log
		t.Fatal(err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if cacheHits <= 0 {
		t.Errorf("restarted server's completion log reports %d jobs from cache, want > 0", cacheHits)
	}

	spec, err := campaign.LoadSpec(strings.NewReader(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := uninterrupted.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifactOf(t, srv2, id2), want.Bytes()) {
		t.Error("restarted server's artifact differs from uninterrupted run")
	}
}

// TestStreamReplayWindowTruncates: with a tiny replay window, a late
// subscriber gets a truncation notice plus the retained tail instead of
// the full history, and the lifetime counters stay exact.
func TestStreamReplayWindowTruncates(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2, ReplayLimit: 8}))
	defer ts.Close()
	id, jobs := submit(t, ts, `{"scenarios":[{"adversary":"random-tree"}],"ns":[8],"trials":64,"seed":2}`)
	v := waitDone(t, ts, id)
	if v.Completed != jobs {
		t.Fatalf("completed = %d, want %d (counters must survive window trims)", v.Completed, jobs)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var truncated, results int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec["truncated"] != nil:
			truncated = int(rec["truncated"].(float64))
		case rec["done"] == true:
		default:
			results++
		}
	}
	if truncated == 0 {
		t.Error("late subscriber got no truncation notice")
	}
	if results > 10 || results == 0 {
		t.Errorf("late subscriber got %d results, want the bounded tail", results)
	}
	if truncated+results != jobs {
		t.Errorf("truncated %d + results %d != %d jobs", truncated, results, jobs)
	}
}

// TestLegacySpecRejectedAndSpellingsShareArtifacts is the one-schema
// check at the HTTP layer: a submission in the retired adversaries/ks
// form — by field or by "version": 1 — is a 400 that names the scenario
// form, while two scenario spellings of one grid (an axis list and its
// expansion) run against a shared cell cache and serve byte-identical
// aggregate artifacts, the second entirely from the first's cells.
func TestLegacySpecRejectedAndSpellingsShareArtifacts(t *testing.T) {
	srv := New(Options{Workers: 2, Cache: cache.NewMemory()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, legacy := range []string{
		`{"name":"forms","adversaries":["random-tree","k-leaves"],"ns":[8,12],"ks":[2,3],"trials":3,"seed":11}`,
		`{"version":1,"name":"forms","scenarios":[{"adversary":"random-tree"}],"ns":[8,12],"trials":3,"seed":11}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(legacy))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("scenario form")) {
			t.Errorf("submit(%s) = %d %s, want a 400 naming the scenario form", legacy, resp.StatusCode, data)
		}
	}

	axis := `{"version":2,"name":"forms","scenarios":[{"adversary":"random-tree"},` +
		`{"adversary":"k-leaves","params":{"k":[2,3]}}],"ns":[8,12],"trials":3,"seed":11}`
	expanded := `{"name":"forms","scenarios":[{"adversary":"random-tree"},` +
		`{"adversary":"k-leaves","params":{"k":2}},{"adversary":"k-leaves","params":{"k":3}}],"ns":[8,12],"trials":3,"seed":11}`

	id1, jobs1 := submit(t, ts, axis)
	waitDone(t, ts, id1)
	id2, jobs2 := submit(t, ts, expanded)
	waitDone(t, ts, id2)
	if jobs1 != jobs2 {
		t.Fatalf("job counts differ: %d vs %d", jobs1, jobs2)
	}

	body := func(id string) []byte {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// The id embeds the submission counter; strip it so the rest of
		// the document must match byte for byte. elapsed_ms and
		// trials_per_sec are wall-clock telemetry about the serving
		// process, explicitly outside the artifact contract — normalize
		// them too so the aggregate bytes carry the assertion.
		data = bytes.Replace(data, []byte(id), []byte("ID"), 1)
		data = regexp.MustCompile(`"(elapsed_ms|trials_per_sec)": [0-9.]+`).
			ReplaceAll(data, []byte(`"$1": 0`))
		return data
	}
	a, b := body(id1), body(id2)
	if !bytes.Equal(a, b) {
		t.Errorf("artifacts differ between spellings:\n%s\nvs\n%s", a, b)
	}
	// Same canonical spec hash → same id suffix → the expanded run was
	// served from the axis run's cache cells.
	if id1[strings.Index(id1, "-"):] != id2[strings.Index(id2, "-"):] {
		t.Errorf("ids hash different canonical specs: %s vs %s", id1, id2)
	}
}

// TestSubmitRejectsBadScenario: scenario-level validation surfaces as a
// 400 with the offending scenario named, before any job runs.
func TestSubmitRejectsBadScenario(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(
		`{"version":2,"scenarios":[{"adversary":"k-leaves","params":{"k":0}}],"ns":[8],"trials":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, data)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, `k-leaves{"k":0}`) {
		t.Errorf("error does not name the scenario: %s", body.Error)
	}
}

// TestServerClusterEndpoints runs a daemon with Options.Cluster: the
// /cluster endpoints come up on the same mux, an in-process worker joins
// over HTTP and leases cells, and the campaign's aggregates are
// identical to a cluster-less daemon's — the byte-identity contract of
// the distributed fabric, observed through the service layer.
func TestServerClusterEndpoints(t *testing.T) {
	plain := httptest.NewServer(New(Options{Workers: 2}))
	defer plain.Close()
	idP, _ := submit(t, plain, specJSON)
	want := waitDone(t, plain, idP)

	coord := cluster.New(cluster.Options{LeaseTTL: time.Minute})
	clustered := httptest.NewServer(New(Options{Workers: 1, Cluster: coord}))
	defer clustered.Close()

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- cluster.RunWorker(ctx, clustered.URL, cluster.WorkerOptions{
			ID: "server-itest-worker", Poll: 5 * time.Millisecond,
		})
	}()
	defer func() {
		cancel()
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	idC, _ := submit(t, clustered, specJSON)
	got := waitDone(t, clustered, idC)
	if got.Status != "done" || got.Failed != 0 {
		t.Fatalf("clustered campaign: %+v", got)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("clustered cells differ:\n got %+v\nwant %+v", got.Cells, want.Cells)
	}

	// A cluster-less daemon must not expose the endpoints at all.
	resp, err := http.Post(plain.URL+"/cluster/lease", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/cluster/lease on a cluster-less daemon: status %d, want 404", resp.StatusCode)
	}
}
