// Package server implements the campaign service behind cmd/campaignd: an
// HTTP facade over the campaign runner (internal/campaign) that accepts
// declarative specs, executes them on worker pools, streams per-cell
// results as they land, and — with a cell cache — keeps every completed
// cell across graceful shutdowns and restarts, so a later submission of
// an interrupted spec resumes it.
//
// Endpoints (README.md "Serving campaigns" has curl examples):
//
//	POST /campaigns            submit a JSON Spec → {"id", "jobs"}.
//	                           Specs are in the scenario form (version 2;
//	                           the retired adversaries/ks form is a 400)
//	                           and are canonicalized on arrival, so
//	                           equivalent submissions share cache cells
//	                           and artifacts.
//	GET  /campaigns            list campaigns with status
//	GET  /campaigns/{id}       status + per-cell aggregates (live or final)
//	GET  /campaigns/{id}/stream  per-measurement stream: JSONL by default,
//	                           server-sent events with Accept: text/event-stream
//
// With Options.Cluster set, two more endpoints expose the distributed
// campaign fabric (internal/cluster, DESIGN.md §3e) and every campaign
// the daemon runs becomes lease-able by remote workers:
//
//	POST /cluster/lease        worker engine handshake → one leased cell
//	POST /cluster/results      a shard's cell entry keyed by the cell's
//	                           content address
//
// Every result served is governed by the campaign determinism contract:
// a campaign's aggregates are a pure function of its spec, so the daemon
// can cache and resume across requests without ever changing an answer.
// The package serves the ROADMAP's "serve heavy traffic" goal (sharding
// and batching via the worker pool, async submission, caching via the
// cell cache).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
	"dyntreecast/internal/metrics"
	"dyntreecast/internal/store"
)

// Options configures a Server.
type Options struct {
	// Workers is the pool size per campaign; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is shared by every campaign the server runs.
	// Each cell is stored as soon as its last trial lands, so a
	// submission of a spec interrupted by a shutdown — of this server or
	// an earlier one sharing the cache — resumes it: completed cells are
	// served from the cache and only the rest execute.
	Cache cache.Cache
	// ReplayLimit bounds each campaign's stream-replay buffer (number of
	// events kept for late subscribers); <= 0 selects 65536. Subscribers
	// that fall behind the window get a truncation notice and continue
	// from the oldest retained event; memory per campaign stays O(limit)
	// instead of O(jobs).
	ReplayLimit int
	// Store, when non-nil, mounts the /results query endpoints over this
	// results warehouse (results.go, DESIGN.md §3h) and auto-ingests
	// every campaign that finishes cleanly under its run id. Pair it
	// with Cache = Store.Cache() so campaigns cache their cell bytes
	// into the warehouse (cmd/campaignd's -store flag wires both).
	Store *store.Store
	// Cluster, when non-nil, mounts the /cluster/lease and
	// /cluster/results endpoints on this coordinator and runs every
	// campaign with it as the remote scheduler: workers joining over HTTP
	// (campaignd -worker -join) lease whole cells while the local pool
	// keeps executing, and artifacts stay byte-identical to local runs.
	Cluster *cluster.Coordinator
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// defaultReplayLimit bounds per-campaign stream replay when
// Options.ReplayLimit is unset.
const defaultReplayLimit = 65536

// Server runs campaigns and serves their state over HTTP. It implements
// http.Handler; use Shutdown for a graceful stop that cancels in-flight
// campaigns after their completed cells reach the cache.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	ctx    context.Context // cancelled by Shutdown
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*run
	order     []string // submission order, for listing
	nextID    int
	closed    bool
	wg        sync.WaitGroup
}

// event is one streamed datum: a measurement of a completed job (Value is
// always present, even when the measured quantity is 0 — n=1 broadcasts
// in 0 rounds), or a job-level error (Err set, no Value).
type event struct {
	Index int      `json:"index"`
	Cell  string   `json:"cell,omitempty"`
	Value *float64 `json:"value,omitempty"`
	Err   string   `json:"error,omitempty"`
}

// run is the live state of one submitted campaign. The event buffer is a
// bounded replay window (Options.ReplayLimit): events holds the most
// recent window, base counts the events dropped before it, and stream
// subscribers that fall behind the window receive a truncation notice.
// Final aggregates never depend on the window — they come from the
// campaign outcome.
type run struct {
	id      string
	spec    campaign.Spec
	jobs    int
	started time.Time

	mu        sync.Mutex
	finished  time.Time // zero while running
	events    []event
	base      int    // absolute index of events[0]
	limit     int    // replay window size
	completed int    // jobs completed so far (counter; survives window trims)
	failed    int    // jobs failed so far
	status    string // "running", "done", "failed", "cancelled"
	outcome   *campaign.Outcome
	errMsg    string
	notify    chan struct{} // closed and replaced on every state change
}

// New returns a Server ready to accept campaigns.
func New(opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*run),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	mux.Handle("GET /metrics", metrics.Default.Handler())
	mux.Handle("GET /{$}", DashboardHandler())
	mux.Handle("GET /ui/", DashboardHandler())
	if opts.Cluster != nil {
		mux.HandleFunc("POST /cluster/lease", opts.Cluster.HandleLease)
		mux.HandleFunc("POST /cluster/results", opts.Cluster.HandleResults)
		mux.HandleFunc("GET /cluster/workers", opts.Cluster.HandleWorkers)
	}
	if opts.Store != nil {
		s.mountResults(mux)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler: every route is served through the
// request counter and latency histogram (metrics.go).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.instrument(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Shutdown gracefully stops the server: no new campaigns are accepted,
// running campaigns are cancelled (the cache already holds, or is being
// handed, every completed cell), and Shutdown waits — up to ctx's
// deadline — for them to flush and finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown interrupted: %w", ctx.Err())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	spec, err := campaign.LoadSpec(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Canonicalize before anything else: every spelling of a grid
	// collapses to one canonical spec, so they share ids-per-hash, cache
	// cells, and artifact bytes. A bad spec — unknown family, bad
	// scenario params, an unsupported or retired schema version, an
	// empty grid — is a 400 here, before any job runs. Planning the
	// cells costs O(cells), not O(trials).
	spec, err = spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := spec.CellJobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := 0
	for _, c := range cells {
		jobs += c.Trials
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.nextID++
	id := fmt.Sprintf("c%04d-%.8s", s.nextID, campaign.SpecHash(spec))
	limit := s.opts.ReplayLimit
	if limit <= 0 {
		limit = defaultReplayLimit
	}
	r := &run{id: id, spec: spec, jobs: jobs, started: time.Now(), limit: limit, status: "running", notify: make(chan struct{})}
	s.campaigns[id] = r
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()
	mCampaignsSubmitted.Inc()

	go s.execute(r)
	s.logf("campaign %s submitted: %d jobs", id, jobs)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "jobs": jobs, "status": "running"})
}

func (s *Server) execute(r *run) {
	defer s.wg.Done()
	cfg := campaign.Config{
		Workers:  s.opts.Workers,
		Cache:    s.opts.Cache,
		OnResult: r.onResult,
	}
	if s.opts.Cluster != nil {
		// Guarded assignment: a typed-nil coordinator in the interface
		// field would switch RunSpec onto the remote path with nothing
		// behind it.
		cfg.Remote = s.opts.Cluster
	}
	outcome, err := campaign.RunSpec(s.ctx, r.spec, cfg)
	// Ingest before publishing the final status, so a client that sees
	// "done" can query the run's rows right away.
	if err == nil {
		s.ingestOutcome(r.id, outcome)
	}
	r.finish(outcome, err)
	s.logf("campaign %s: %s", r.id, r.statusLine())
}

func (r *run) onResult(res campaign.TrialResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res.Err != nil {
		r.failed++
		r.events = append(r.events, event{Index: res.Index, Err: res.Err.Error()})
	} else {
		r.completed++
		v := float64(res.Rounds)
		r.events = append(r.events, event{Index: res.Index, Cell: res.Cell, Value: &v})
	}
	// Trim the replay window in batches so the copy amortizes to O(1)
	// per event.
	if len(r.events) > r.limit+r.limit/4 {
		drop := len(r.events) - r.limit
		r.base += drop
		r.events = append([]event(nil), r.events[drop:]...)
	}
	r.wake()
}

// wake must be called with r.mu held.
func (r *run) wake() {
	close(r.notify)
	r.notify = make(chan struct{})
}

func (r *run) finish(outcome *campaign.Outcome, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = time.Now()
	r.outcome = outcome
	switch {
	case err != nil && outcome != nil:
		r.status = "cancelled" // RunSpec errors post-compile only on cancellation or cache failure
		r.errMsg = err.Error()
	case err != nil:
		r.status = "failed"
		r.errMsg = err.Error()
	default:
		r.status = "done"
	}
	r.wake()
}

// elapsed returns how long the campaign has run (or ran). Must be called
// with r.mu held.
func (r *run) elapsed() time.Duration {
	if !r.finished.IsZero() {
		return r.finished.Sub(r.started)
	}
	return time.Since(r.started)
}

// trialsPerSec returns the campaign's observed completion rate. Must be
// called with r.mu held.
func (r *run) trialsPerSec(completed int) float64 {
	secs := r.elapsed().Seconds()
	if secs <= 0 || completed <= 0 {
		return 0
	}
	return float64(completed) / secs
}

func (r *run) statusLine() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outcome != nil {
		return fmt.Sprintf("%s (%d/%d jobs, %d failed, %d from cache, %s, %.1f trials/sec)",
			r.status, r.outcome.Completed, r.jobs, r.outcome.Failed, r.outcome.CacheHits,
			r.elapsed().Round(time.Millisecond), r.trialsPerSec(r.outcome.Completed))
	}
	return r.status
}

func (s *Server) lookup(req *http.Request) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.campaigns[req.PathValue("id")]
	return r, ok
}

// statusView is the JSON shape of GET /campaigns/{id} (and of the list
// rows of GET /campaigns). ElapsedMS and TrialsPerSec make the list
// self-describing — progress and throughput without scraping /metrics;
// they describe the serving process, never the artifact, which stays
// byte-identical to an unobserved run.
type statusView struct {
	ID           string               `json:"id"`
	Status       string               `json:"status"`
	Jobs         int                  `json:"jobs"`
	Completed    int                  `json:"completed"`
	Failed       int                  `json:"failed"`
	ElapsedMS    int64                `json:"elapsed_ms"`
	TrialsPerSec float64              `json:"trials_per_sec"`
	Error        string               `json:"error,omitempty"`
	Cells        []campaign.CellStats `json:"cells,omitempty"`
}

func (r *run) view(withCells bool) statusView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := statusView{ID: r.id, Status: r.status, Jobs: r.jobs, Error: r.errMsg}
	v.ElapsedMS = r.elapsed().Milliseconds()
	if r.outcome != nil {
		v.Completed, v.Failed = r.outcome.Completed, r.outcome.Failed
		v.TrialsPerSec = roundRate(r.trialsPerSec(v.Completed))
		if withCells {
			v.Cells = r.outcome.Cells
		}
		return v
	}
	// Campaign still running: counts come from the lifetime counters and
	// the cell preview from the retained replay window. The preview is
	// completion-order dependent and window-bounded — only the final
	// outcome carries the byte-stable aggregates.
	v.Completed, v.Failed = r.completed, r.failed
	if withCells {
		byCell := make(map[string][]uint32)
		var order []string
		for _, e := range r.events {
			if e.Err != "" || e.Value == nil {
				continue
			}
			if _, seen := byCell[e.Cell]; !seen {
				order = append(order, e.Cell)
			}
			byCell[e.Cell] = append(byCell[e.Cell], uint32(*e.Value))
		}
		v.Cells = make([]campaign.CellStats, len(order))
		for i, cell := range order {
			v.Cells[i] = campaign.SummarizeRounds(cell, byCell[cell])
		}
	}
	return v
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, r.view(true))
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.campaigns[id])
	}
	s.mu.Unlock()
	views := make([]statusView, len(runs))
	for i, r := range runs {
		views[i] = r.view(false)
	}
	writeJSON(w, http.StatusOK, views)
}

// handleStream replays every event so far and then follows the campaign
// live until it finishes or the client goes away. Default framing is
// JSONL (one event per line, then a final status line); with
// Accept: text/event-stream the same payloads are sent as SSE "result"
// events followed by a "done" event.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	mStreams.Inc()
	defer mStreams.Dec()
	sse := req.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	emit := func(kind string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		flusher.Flush()
		return err == nil
	}

	cursor := 0 // absolute event index
	for {
		r.mu.Lock()
		var truncated int
		if cursor < r.base {
			// The subscriber fell behind the replay window (or joined
			// late on a huge campaign): report the gap, then continue
			// from the oldest retained event.
			truncated = r.base - cursor
			cursor = r.base
		}
		pending := append([]event(nil), r.events[cursor-r.base:]...)
		finished := r.status != "running"
		notify := r.notify
		r.mu.Unlock()

		if truncated > 0 {
			if !emit("truncated", map[string]int{"truncated": truncated}) {
				return
			}
		}
		for _, e := range pending {
			if !emit("result", e) {
				return
			}
		}
		cursor += len(pending)
		if finished {
			v := r.view(false)
			emit("done", map[string]any{"done": true, "status": v.Status, "completed": v.Completed, "failed": v.Failed})
			return
		}
		select {
		case <-notify:
		case <-req.Context().Done():
			return
		}
	}
}
