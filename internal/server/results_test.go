package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyntreecast/internal/store"
)

// storeServer starts a test daemon backed by a fresh warehouse, with the
// warehouse doubling as the campaign cell cache — the cmd/campaignd
// -store wiring.
func storeServer(t *testing.T) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "warehouse"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 2, Store: st, Cache: st.Cache()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, st
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestResultsEndToEnd is the acceptance flow: a campaign run with -store
// becomes queryable over paginated GET /results with scenario/n/goal
// filters, and a cache-warm re-run diffs empty against it.
func TestResultsEndToEnd(t *testing.T) {
	_, ts, _ := storeServer(t)
	id, _ := submit(t, ts, specJSON)
	waitDone(t, ts, id)

	// Paginated walk with a tiny page size.
	var rows []store.Row
	cursor := ""
	pages := 0
	for {
		var page store.Page
		path := "/results?campaign=" + url.QueryEscape(id) + "&limit=3"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		if code := getJSON(t, ts, path, &page); code != http.StatusOK {
			t.Fatalf("GET /results: %d", code)
		}
		pages++
		rows = append(rows, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(rows) != 4 || pages != 2 {
		t.Fatalf("walked %d rows in %d pages, want 4 in 2", len(rows), pages)
	}

	// Filters: scenario, n, goal.
	var page store.Page
	if getJSON(t, ts, "/results?adversary=random-tree&n=8&goal=broadcast", &page); len(page.Rows) != 1 {
		t.Errorf("filtered query returned %d rows, want 1", len(page.Rows))
	}
	if code := getJSON(t, ts, "/results?campaign=missing", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d, want 404", code)
	}
	if code := getJSON(t, ts, "/results?n=minus-one", nil); code != http.StatusBadRequest {
		t.Errorf("bad n: %d, want 400", code)
	}
	if code := getJSON(t, ts, "/results?cursor=!!!", nil); code != http.StatusBadRequest {
		t.Errorf("bad cursor: %d, want 400", code)
	}

	// A cache-warm re-run of the same spec ingests under a fresh run id
	// with identical content addresses: the diff is empty.
	id2, _ := submit(t, ts, specJSON)
	waitDone(t, ts, id2)
	var d store.DiffResult
	if code := getJSON(t, ts, "/results/diff?a="+url.QueryEscape(id)+"&b="+url.QueryEscape(id2), &d); code != http.StatusOK {
		t.Fatalf("GET /results/diff: %d", code)
	}
	if len(d.Entries) != 0 || d.Identical != 4 {
		t.Errorf("warm re-run diff: %d entries, %d identical; want 0, 4", len(d.Entries), d.Identical)
	}
	if code := getJSON(t, ts, "/results/diff?a="+url.QueryEscape(id), nil); code != http.StatusBadRequest {
		t.Errorf("half a diff: %d, want 400", code)
	}
	if code := getJSON(t, ts, "/results/diff?a=x&b=y", nil); code != http.StatusNotFound {
		t.Errorf("diff of unknown ids: %d, want 404", code)
	}

	// Campaign listing and curves.
	var infos []store.CampaignInfo
	if code := getJSON(t, ts, "/results/campaigns", &infos); code != http.StatusOK || len(infos) != 2 {
		t.Errorf("campaign listing: code %d, %d campaigns", code, len(infos))
	}
	var curves []store.Curve
	if code := getJSON(t, ts, "/results/curves?adversary=random-tree", &curves); code != http.StatusOK {
		t.Fatalf("GET /results/curves: %d", code)
	}
	if len(curves) != 1 || len(curves[0].Points) != 2 {
		t.Fatalf("curves = %+v", curves)
	}
	for _, p := range curves[0].Points {
		if len(p.Measured) != 2 {
			t.Errorf("curve point n=%d measured by %d campaigns, want 2", p.N, len(p.Measured))
		}
	}
}

// TestResultsSurviveRestart: a new daemon over the same warehouse serves
// the previous lifetime's results.
func TestResultsSurviveRestart(t *testing.T) {
	root := filepath.Join(t.TempDir(), "warehouse")
	st, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Options{Workers: 2, Store: st, Cache: st.Cache()}))
	id, _ := submit(t, ts, specJSON)
	waitDone(t, ts, id)
	ts.Close()

	st2, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(Options{Workers: 2, Store: st2, Cache: st2.Cache()}))
	defer ts2.Close()
	var page store.Page
	if code := getJSON(t, ts2, "/results?campaign="+url.QueryEscape(id), &page); code != http.StatusOK {
		t.Fatalf("restarted daemon: %d", code)
	}
	if len(page.Rows) != 4 {
		t.Errorf("restarted daemon serves %d rows, want 4", len(page.Rows))
	}
}

// TestResultsEndpointsAbsentWithoutStore: a store-less daemon does not
// mount /results.
func TestResultsEndpointsAbsentWithoutStore(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1}))
	defer ts.Close()
	if code := getJSON(t, ts, "/results", nil); code != http.StatusNotFound {
		t.Errorf("store-less /results: %d, want 404", code)
	}
}

// TestShutdownLeavesNoStreamGoroutines is the graceful-shutdown
// satellite's server half: Shutdown with an open stream over a running
// campaign terminates the stream (the campaign is cancelled, the stream
// sees its done event) and leaves no goroutine behind.
func TestShutdownLeavesNoStreamGoroutines(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "warehouse"))
	if err != nil {
		t.Fatal(err)
	}
	stopGC := st.StartGC(time.Millisecond, 1<<30, nil)
	srv := New(Options{Workers: 1, Store: st, Cache: st.Cache()})
	ts := httptest.NewServer(srv)

	before := runtime.NumGoroutine()
	// A slow campaign plus an open stream following it.
	slow := `{"scenarios":[{"adversary":"random-tree"}],"ns":[64],"trials":400,"seed":3}`
	id, _ := submit(t, ts, slow)
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("stream never started: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stopGC()
	resp.Body.Close()
	ts.Close()

	// Everything the daemon spawned — campaign pool, stream handler, GC
	// ticker — must be gone; allow the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines after shutdown = %d, want <= %d", now, before)
	}

	// A shut-down daemon refuses new work but still answers queries.
	req, _ := http.NewRequest("POST", "/campaigns", strings.NewReader(specJSON))
	w := newRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: %d, want 503", w.Code)
	}
}

// newRecorder wraps httptest.NewRecorder for the post-shutdown check.
func newRecorder() *httptest.ResponseRecorder { return httptest.NewRecorder() }

// TestDashboardHasResultsSection: the embedded UI ships the warehouse
// panel (it degrades to an explanatory note on store-less daemons, so it
// is present unconditionally).
func TestDashboardHasResultsSection(t *testing.T) {
	_, ts, _ := storeServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	html := sb.String()
	for _, want := range []string{"Results warehouse", "loadResults", "next_cursor"} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard HTML missing %q", want)
		}
	}
}
