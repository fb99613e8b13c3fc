// Package cluster implements the distributed campaign fabric (DESIGN.md
// §3e, §3g): a Coordinator that shards running campaigns' grid cells to
// remote workers over HTTP — whole cells by default, or sub-cell trial
// ranges with Options.ShardTrials — and the worker loop (RunWorker) that
// leases shards, executes them on the arena pipeline, and pushes each
// shard back as a cell entry (campaign.DecodeCellEntry) keyed by the
// cell's content address and trial range.
//
// The protocol is two endpoints, mounted by internal/server (and by
// cmd/campaign -join) under /cluster:
//
//	POST /cluster/lease    {worker, engine, entry_format} → 200 {lease_id,
//	                       ttl_ms, job} | 204 (no pending work) | 409
//	                       (engine version or entry format mismatch — the
//	                       handshake that keeps a stale worker from ever
//	                       computing a cell)
//	POST /cluster/results  {lease_id, worker, key, trial_lo?, trial_hi?,
//	                       entry | error} → 200 {accepted, reason?}
//
// Correctness leans entirely on the campaign determinism contract: a
// shard is a pure function of its content address and trial range (every
// trial's random stream derives from the address and the trial's
// index), so the coordinator is free to re-issue expired leases, let the
// local pool steal abandoned shards, and drop duplicate or stale results —
// whichever source completes a shard first supplies bytes identical to
// every other source. A dead, slow, stale-versioned, or truncating
// worker can therefore change only wall-clock time, never an artifact.
// See DESIGN.md §3e for the lease lifecycle and byte-identity argument,
// §3g for sub-cell sharding.
//
// Trust note: workers are trusted to compute honestly. The protocol
// validates lease currency, the content-address echo, and the pushed
// entry's format, cell name and trial count, but it does not recompute or
// cryptographically verify measurement values — a worker that fabricates
// plausible values for a cell it legitimately holds can corrupt that
// cell. Run workers inside your trust boundary (the endpoints carry no
// authentication), exactly as you would the machine the campaign runs
// on.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dyntreecast/internal/campaign"
)

// DefaultLeaseTTL is the lease lifetime when Options.LeaseTTL is unset:
// long enough for any realistic cell, short enough that a dead worker
// delays its cell by at most a minute before re-issue.
const DefaultLeaseTTL = time.Minute

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a worker holds an unacknowledged shard lease
	// before the coordinator re-issues it (to another worker or the local
	// pool); <= 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// ShardTrials, when > 0, splits every cell's trial range into shards
	// of at most this many trials and leases them independently, so one
	// huge cell saturates the fleet instead of one worker. 0 (the
	// default) keeps the whole cell as the lease unit. Any value
	// produces byte-identical artifacts — each trial's random stream
	// depends only on its cell and index, so the shard size is pure
	// scheduling.
	ShardTrials int
	// Logf, when non-nil, receives one line per lease lifecycle event.
	Logf func(format string, args ...any)
}

// LeaseRequest is the body of POST /cluster/lease.
type LeaseRequest struct {
	Worker      string `json:"worker"`       // self-chosen worker identity, for logs
	Engine      string `json:"engine"`       // the worker's campaign.EngineVersion
	EntryFormat int    `json:"entry_format"` // the worker's campaign.CellEntryFormat
}

// LeaseResponse is the 200 body of POST /cluster/lease: one leased cell.
type LeaseResponse struct {
	LeaseID  string           `json:"lease_id"`
	TTLMilli int64            `json:"ttl_ms"` // lease lifetime granted
	Job      campaign.CellJob `json:"job"`
}

// ResultPush is the body of POST /cluster/results: a completed shard as
// a cell entry (campaign.ExecuteCellJob's output, base64 in the JSON
// envelope), or, with Error set, a failed lease the coordinator should
// re-queue. TrialLo/TrialHi echo the leased job's sub-range; both zero
// means the whole cell, which is what pre-sharding workers push — against
// a sharded lease that normalizes to a range mismatch and a harmless
// re-queue, never a corrupt splice.
type ResultPush struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Key     string `json:"key"` // echo of the cell's content address
	TrialLo int    `json:"trial_lo,omitempty"`
	TrialHi int    `json:"trial_hi,omitempty"`
	Entry   []byte `json:"entry,omitempty"`
	Error   string `json:"error,omitempty"`
}

// ResultAck is the 200 body of POST /cluster/results. Accepted is false
// for stale, duplicate, or re-queued pushes — all harmless: the cell's
// bytes are the same wherever it runs, so the coordinator just reports
// which source won.
type ResultAck struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// Stats counts coordinator lifecycle events since construction. The unit
// of the lease lifecycle is the shard; with Options.ShardTrials unset
// every cell is one shard, so the counts match pre-sharding semantics.
type Stats struct {
	LeasesGranted  int // shards handed to remote workers
	LeasesRejected int // engine-version or entry-format handshake rejections
	RemoteCells    int // shards completed by remote workers
	Requeued       int // leases expired, failed, or invalid → shard re-pooled
}

// Coordinator shards the cells of running campaigns to HTTP workers. It
// implements campaign.Remote: install it as campaign.Config.Remote (or
// through server.Options.Cluster / dyntreecast.CampaignWithCluster) and
// every campaign run with that config becomes lease-able by workers. Safe
// for concurrent use; one Coordinator serves any number of concurrent
// campaigns.
type Coordinator struct {
	ttl   time.Duration
	shard int // Options.ShardTrials; 0 = whole-cell leases
	logf  func(string, ...any)
	now   func() time.Time // test hook; time.Now outside tests

	mu        sync.Mutex
	sessions  []*session        // open campaigns, in Open order
	leases    map[string]*lease // active lease id → lease
	workers   map[string]*workerState
	nextSess  int
	nextLease int
	stats     Stats
}

// lease is one outstanding shard grant. A lease id is present in
// Coordinator.leases exactly while it is the shard's current, unexpired,
// un-superseded grant — re-issue and local steal both delete it. A push
// under a deleted lease is not lost, though: while the shard is still
// incomplete, HandleResults accepts the result by (content address,
// trial range) — determinism makes a late result exactly as good as a
// fresh one — so workers that outlive their leases still contribute.
type lease struct {
	sess   *session
	key    string
	shard  int // index into the cell's shards
	worker string
}

// session is the coordinator side of one campaign's RemoteSession.
type session struct {
	c       *Coordinator
	id      int
	deliver func(key string, lo, hi int, rounds []uint32)
	order   []string // claim order (campaign plan order)
	cells   map[string]*cellState
	pending int // shards not yet complete
	closed  bool
	notify  chan struct{} // closed and replaced on every state change
}

// cellState tracks one cell's shards through the lease lifecycle. Shard
// boundaries are fixed at Open from Options.ShardTrials, so every lease,
// push, and local claim for a shard names the same [lo, hi) — which is
// what makes the (key, lo, hi) match of late pushes unambiguous.
type cellState struct {
	job    campaign.CellJob
	shards []shardState
}

// shardState tracks one trial sub-range of a cell.
type shardState struct {
	lo, hi   int
	done     bool
	local    bool // claimed by the campaign's local pool
	leaseID  string
	leaseExp time.Time
}

// shardJob is the leased view of one shard: the cell's job with the
// shard's bounds, keeping the (0, 0) whole-cell encoding when the cell
// is its own single shard (byte-compatible with pre-sharding workers).
func (cs *cellState) shardJob(i int) campaign.CellJob {
	job := cs.job
	if sh := cs.shards[i]; sh.lo != 0 || sh.hi != job.Trials {
		job.TrialLo, job.TrialHi = sh.lo, sh.hi
	}
	return job
}

// shardName renders a shard for logs: the bare cell when the shard is
// the whole cell, otherwise the cell with its trial range.
func (cs *cellState) shardName(sh *shardState) string {
	if sh.lo == 0 && sh.hi == cs.job.Trials {
		return cs.job.Cell
	}
	return fmt.Sprintf("%s[%d:%d)", cs.job.Cell, sh.lo, sh.hi)
}

// shardSpans cuts a trial count into the coordinator's shard boundaries.
func (c *Coordinator) shardSpans(trials int) []shardState {
	if c.shard <= 0 || c.shard >= trials {
		return []shardState{{lo: 0, hi: trials}}
	}
	out := make([]shardState, 0, (trials+c.shard-1)/c.shard)
	for lo := 0; lo < trials; lo += c.shard {
		hi := lo + c.shard
		if hi > trials {
			hi = trials
		}
		out = append(out, shardState{lo: lo, hi: hi})
	}
	return out
}

// New returns a Coordinator ready to accept campaigns and workers.
func New(opts Options) *Coordinator {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Coordinator{ttl: ttl, shard: opts.ShardTrials, logf: logf, now: time.Now,
		leases: make(map[string]*lease), workers: make(map[string]*workerState)}
}

// Stats returns a snapshot of the coordinator's lifecycle counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Handler returns an http.Handler serving the cluster protocol, for
// mounting the coordinator outside internal/server (cmd/campaign -join,
// tests).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/lease", c.HandleLease)
	mux.HandleFunc("POST /cluster/results", c.HandleResults)
	mux.HandleFunc("GET /cluster/workers", c.HandleWorkers)
	return mux
}

// Open implements campaign.Remote: it registers a campaign's pending
// cells for leasing and returns the session its local pool coordinates
// through.
func (c *Coordinator) Open(jobs []campaign.CellJob, deliver func(key string, lo, hi int, rounds []uint32)) campaign.RemoteSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSess++
	s := &session{
		c:       c,
		id:      c.nextSess,
		deliver: deliver,
		cells:   make(map[string]*cellState, len(jobs)),
		notify:  make(chan struct{}),
	}
	shards := 0
	for _, j := range jobs {
		if _, dup := s.cells[j.Key]; dup {
			// Defensive: a scheduler must see each content address once
			// (campaign's runRemote groups duplicate grid cells before
			// opening a session); counting a key twice would leave
			// pending above zero forever.
			continue
		}
		cs := &cellState{job: j, shards: c.shardSpans(j.Trials)}
		s.order = append(s.order, j.Key)
		s.cells[j.Key] = cs
		shards += len(cs.shards)
	}
	s.pending = shards
	c.sessions = append(c.sessions, s)
	cmSessions.Inc()
	c.logf("cluster: session %d opened: %d cells, %d leasable shards", s.id, len(s.order), shards)
	return s
}

// wake must be called with c.mu held.
func (s *session) wake() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// dropLease must be called with c.mu held: it invalidates the shard's
// current lease, if any, so a later push from its holder misses.
func (c *Coordinator) dropLease(sh *shardState) {
	if sh.leaseID != "" {
		delete(c.leases, sh.leaseID)
		sh.leaseID = ""
	}
}

// ClaimLocal implements campaign.RemoteSession. Local workers get shards
// that are unleased — or whose lease has expired (the local steal that
// makes a dead worker cost only wall-clock) — in campaign plan order,
// and block while every pending shard is under an active lease.
func (s *session) ClaimLocal(ctx context.Context) (campaign.CellJob, bool) {
	c := s.c
	for {
		c.mu.Lock()
		if s.closed || s.pending == 0 {
			c.mu.Unlock()
			return campaign.CellJob{}, false
		}
		now := c.now()
		var nearest time.Time
		for _, key := range s.order {
			cs := s.cells[key]
			for i := range cs.shards {
				sh := &cs.shards[i]
				if sh.done || sh.local {
					continue
				}
				if sh.leaseID != "" && now.Before(sh.leaseExp) {
					if nearest.IsZero() || sh.leaseExp.Before(nearest) {
						nearest = sh.leaseExp
					}
					continue
				}
				if sh.leaseID != "" {
					c.stats.Requeued++
					cmRequeued.With("steal").Inc()
					c.logf("cluster: session %d: lease on %s expired; local steal", s.id, cs.shardName(sh))
					c.dropLease(sh)
				}
				sh.local = true
				job := cs.shardJob(i)
				c.mu.Unlock()
				return job, true
			}
		}
		notify := s.notify
		c.mu.Unlock()

		// Nothing claimable: wait for a state change, the nearest lease
		// expiry, or cancellation.
		var expiry <-chan time.Time
		var timer *time.Timer
		if !nearest.IsZero() {
			timer = time.NewTimer(nearest.Sub(now))
			expiry = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return campaign.CellJob{}, false
		case <-notify:
		case <-expiry:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// CompleteLocal implements campaign.RemoteSession: it resolves the shard
// by its exact (key, lo, hi) boundaries, which the claimed job's
// ShardBounds carry.
func (s *session) CompleteLocal(key string, lo, hi int) bool {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := s.cells[key]
	if !ok {
		return false
	}
	sh := cs.shardByRange(lo, hi)
	if sh == nil || sh.done {
		return false
	}
	sh.done = true
	c.dropLease(sh)
	s.pending--
	s.wake()
	return true
}

// shardByRange finds the cell's shard with exactly the bounds [lo, hi),
// or nil — boundaries are fixed at Open, so exact match is the contract.
func (cs *cellState) shardByRange(lo, hi int) *shardState {
	for i := range cs.shards {
		if sh := &cs.shards[i]; sh.lo == lo && sh.hi == hi {
			return sh
		}
	}
	return nil
}

// Close implements campaign.RemoteSession: the campaign is done (or
// cancelled); withdraw its cells and invalidate its leases so late
// remote pushes are dropped.
func (s *session) Close() {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, cs := range s.cells {
		for i := range cs.shards {
			c.dropLease(&cs.shards[i])
		}
	}
	for i, open := range c.sessions {
		if open == s {
			c.sessions = append(c.sessions[:i], c.sessions[i+1:]...)
			cmSessions.Dec()
			break
		}
	}
	s.wake()
	c.logf("cluster: session %d closed (%d shards still pending)", s.id, s.pending)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// HandleLease serves POST /cluster/lease: the engine-version and
// entry-format handshake, then the oldest claimable shard across open
// sessions.
func (c *Coordinator) HandleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decoding lease request: %v", err)})
		return
	}
	var reject string
	switch {
	case req.Engine != campaign.EngineVersion:
		reject = fmt.Sprintf("engine version mismatch: worker %q speaks %q, coordinator %q — results would not be byte-identical",
			req.Worker, req.Engine, campaign.EngineVersion)
	case req.EntryFormat != campaign.CellEntryFormat:
		reject = fmt.Sprintf("entry format mismatch: worker %q pushes format %d, coordinator reads %d",
			req.Worker, req.EntryFormat, campaign.CellEntryFormat)
	}
	if reject != "" {
		c.mu.Lock()
		c.stats.LeasesRejected++
		c.seen(req.Worker, req.Engine).rejected = true
		c.mu.Unlock()
		cmLeasesRejected.Inc()
		c.logf("cluster: rejected worker %q: %s", req.Worker, reject)
		writeJSON(w, http.StatusConflict, map[string]string{"error": reject})
		return
	}

	c.mu.Lock()
	ws := c.seen(req.Worker, req.Engine)
	now := c.now()
	for _, s := range c.sessions {
		for _, key := range s.order {
			cs := s.cells[key]
			for i := range cs.shards {
				sh := &cs.shards[i]
				if sh.done || sh.local {
					continue
				}
				if sh.leaseID != "" && now.Before(sh.leaseExp) {
					continue
				}
				if sh.leaseID != "" {
					c.stats.Requeued++
					cmRequeued.With("expired").Inc()
					c.dropLease(sh)
				}
				c.nextLease++
				id := fmt.Sprintf("lease-%d", c.nextLease)
				sh.leaseID, sh.leaseExp = id, now.Add(c.ttl)
				c.leases[id] = &lease{sess: s, key: key, shard: i, worker: req.Worker}
				c.stats.LeasesGranted++
				ws.leasesGranted++
				job := cs.shardJob(i)
				name := cs.shardName(sh)
				c.mu.Unlock()
				cmLeasesGranted.Inc()
				c.logf("cluster: leased %s to worker %q (%s, ttl %s)", name, req.Worker, id, c.ttl)
				writeJSON(w, http.StatusOK, LeaseResponse{LeaseID: id, TTLMilli: c.ttl.Milliseconds(), Job: job})
				return
			}
		}
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// HandleResults serves POST /cluster/results. A push under the shard's
// current lease must echo the leased content address and trial range; a
// push whose lease expired or was superseded is still accepted — matched
// by (content address, trial range) — as long as the shard is
// incomplete, because a late result of a pure function equals a fresh
// one (pushes for completed shards are acknowledged and dropped, equally
// losslessly). Either way the entry must decode as the leased cell's
// with exactly the shard's trial count; a worker-reported error or an
// invalid entry re-queues the shard for the local pool or another
// worker. The decode runs under the coordinator lock, but its cost is
// bounded by the leased shard, not by the payload: the entry's header is
// checked against the shard before a single trial is read.
func (c *Coordinator) HandleResults(w http.ResponseWriter, r *http.Request) {
	var push ResultPush
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&push); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decoding result push: %v", err)})
		return
	}
	c.mu.Lock()
	ws := c.seen(push.Worker, "")
	var s *session
	var cs *cellState
	var sh *shardState
	if l, ok := c.leases[push.LeaseID]; ok {
		delete(c.leases, push.LeaseID)
		s, cs = l.sess, l.sess.cells[l.key]
		sh = &cs.shards[l.shard]
		sh.leaseID = ""
		if push.Key != l.key {
			c.stats.Requeued++
			ws.pushesRejected++
			s.wake()
			c.mu.Unlock()
			cmRequeued.With("invalid").Inc()
			cmPushes.With("false").Inc()
			c.logf("cluster: re-queued %s from worker %q: content address mismatch (pushed %.12s)", cs.shardName(sh), push.Worker, push.Key)
			writeJSON(w, http.StatusOK, ResultAck{Accepted: false, Reason: "content address mismatch"})
			return
		}
	} else {
		// The lease expired or was superseded — but a shard is a pure
		// function of its content address and trial range, so a late
		// result for a shard nobody has finished yet is exactly as good
		// as a fresh one. Accepting it means a worker that outlives its
		// lease (no renewal protocol) still contributes, and the
		// concurrently stealing local pool just discards its own
		// duplicate at CompleteLocal.
		var csSess *session
		csSess, cs = c.cellByKey(push.Key)
		if cs != nil {
			pLo, pHi := pushBounds(push, cs.job.Trials)
			sh = cs.shardByRange(pLo, pHi)
		}
		if sh == nil || sh.done {
			ws.pushesRejected++
			c.mu.Unlock()
			cmPushes.With("false").Inc()
			writeJSON(w, http.StatusOK, ResultAck{Accepted: false, Reason: "unknown lease and no pending shard with that address"})
			return
		}
		s = csSess
	}
	name := cs.shardName(sh)
	requeue := func(metricReason, reason string) {
		c.stats.Requeued++
		ws.pushesRejected++
		s.wake()
		c.mu.Unlock()
		cmRequeued.With(metricReason).Inc()
		cmPushes.With("false").Inc()
		c.logf("cluster: re-queued %s from worker %q: %s", name, push.Worker, reason)
		writeJSON(w, http.StatusOK, ResultAck{Accepted: false, Reason: reason})
	}
	pLo, pHi := pushBounds(push, cs.job.Trials)
	switch {
	case push.Error != "":
		requeue("error", fmt.Sprintf("worker error: %s", push.Error))
		return
	case pLo != sh.lo || pHi != sh.hi:
		// A pre-sharding worker answering a sharded lease pushes the
		// whole cell (no bounds echo); normalization turns that into a
		// range mismatch here — a harmless re-queue, never a splice of
		// the wrong trials.
		requeue("invalid", fmt.Sprintf("trial range mismatch: pushed [%d,%d), leased [%d,%d)", pLo, pHi, sh.lo, sh.hi))
		return
	}
	rounds, err := campaign.DecodeCellEntry(push.Entry, cs.job.Cell, sh.hi-sh.lo)
	if err != nil {
		requeue("invalid", err.Error())
		return
	}
	sh.done = true
	c.dropLease(sh) // a late push may complete a shard re-leased to someone else
	c.stats.RemoteCells++
	ws.pushesAccepted++
	ws.lastPush = c.now()
	deliver := s.deliver
	lo, hi := sh.lo, sh.hi
	c.mu.Unlock()
	cmPushes.With("true").Inc()
	cmRemoteCells.Inc()
	cmWorkerLastPush.With(workerName(push.Worker)).Set(float64(c.now().UnixMilli()) / 1000)

	// Deliver outside the coordinator lock: the campaign splices under
	// its own mutex and never calls back into the coordinator. At-most-
	// once is guaranteed by the done flip above; pending is decremented
	// only after delivery, so the campaign cannot observe "all shards
	// complete" while this shard's results are still in flight.
	deliver(push.Key, lo, hi, rounds)
	c.mu.Lock()
	s.pending--
	s.wake()
	c.mu.Unlock()
	c.logf("cluster: %s completed by worker %q", name, push.Worker)
	writeJSON(w, http.StatusOK, ResultAck{Accepted: true})
}

// pushBounds normalizes a push's echoed trial range: both zero is the
// whole-cell encoding (what pre-sharding workers send).
func pushBounds(push ResultPush, trials int) (lo, hi int) {
	if push.TrialLo == 0 && push.TrialHi == 0 {
		return 0, trials
	}
	return push.TrialLo, push.TrialHi
}

// cellByKey finds a still-open session's cell by content address. Must
// be called with c.mu held.
func (c *Coordinator) cellByKey(key string) (*session, *cellState) {
	for _, s := range c.sessions {
		if cs, ok := s.cells[key]; ok {
			return s, cs
		}
	}
	return nil, nil
}
