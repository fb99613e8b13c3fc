package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"dyntreecast/internal/campaign"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// ID names the worker in coordinator logs and lease bookkeeping;
	// empty selects host-pid.
	ID string
	// Poll is how long the worker sleeps after an empty lease response;
	// <= 0 selects 500ms.
	Poll time.Duration
	// Client is the HTTP client used for the coordinator; nil selects a
	// client with a 30s timeout (covering the request round-trips, not
	// cell execution, which happens between requests).
	Client *http.Client
	// ReconnectWindow is how long the worker keeps retrying a
	// coordinator that answered before and stopped (riding out a daemon
	// restart) before treating it as gone for good and stopping cleanly;
	// <= 0 selects 30s.
	ReconnectWindow time.Duration
	// Logf, when non-nil, receives one line per leased cell.
	Logf func(format string, args ...any)
}

// maxTransportFailures is how many consecutive transport errors a worker
// that never reached its coordinator tolerates before erroring out — a
// wrong URL fails fast. Once the coordinator has answered at all,
// failure handling switches to WorkerOptions.ReconnectWindow: brief
// outages (a restarting daemon) are ridden out, and a coordinator gone
// past the window (a one-shot cmd/campaign -join run finishing) is a
// clean stop, not an error.
const maxTransportFailures = 5

// RunWorker joins the coordinator at base (e.g. "http://host:8080") and
// executes leased shards until ctx is done: lease, execute on the arena
// pipeline, push the shard's cell entry keyed by the cell's content
// address and trial range, repeat. A shard whose execution fails is
// reported so the coordinator re-queues it — workers never push partial
// shards, which is one half of the byte-identity argument (the other
// half is the engine-version and entry-format handshake, which makes a
// mismatched worker exit with an error here). Returns nil on
// cancellation.
func RunWorker(ctx context.Context, base string, opts WorkerOptions) error {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	id := opts.ID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	window := opts.ReconnectWindow
	if window <= 0 {
		window = 30 * time.Second
	}
	failures := 0
	contacted := false
	var downSince time.Time
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, status, err := requestLease(ctx, client, base, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			failures++
			switch {
			case !contacted && failures >= maxTransportFailures:
				return fmt.Errorf("cluster: worker %s: coordinator unreachable: %w", id, err)
			case contacted && downSince.IsZero():
				downSince = time.Now()
			case contacted && time.Since(downSince) >= window:
				// The coordinator answered us before and has been gone for
				// the whole reconnect window: its run is over (one-shot
				// coordinators shut down when the campaign completes).
				// That is a clean stop.
				logf("cluster: worker %s: coordinator gone for %s; stopping", id, window)
				return nil
			}
			logf("cluster: worker %s: lease request failed: %v", id, err)
			if !sleep(ctx, poll) {
				return nil
			}
			continue
		}
		failures = 0
		contacted = true
		downSince = time.Time{}
		switch status {
		case http.StatusNoContent:
			if !sleep(ctx, poll) {
				return nil
			}
			continue
		case http.StatusConflict:
			return fmt.Errorf("cluster: worker %s rejected by coordinator: %s", id, lease.reject)
		case http.StatusOK:
		default:
			return fmt.Errorf("cluster: worker %s: unexpected lease status %d", id, status)
		}

		job := lease.resp.Job
		lo, hi := job.ShardBounds()
		logf("cluster: worker %s executing %s (trials [%d:%d) of %d)", id, job.Cell, lo, hi, job.Trials)
		entry, execErr := campaign.ExecuteCellJob(ctx, job)
		if execErr != nil && ctx.Err() != nil {
			// Cancelled mid-shard: stop without pushing; the lease expires
			// and the shard is re-issued or stolen locally.
			return nil
		}
		// Echo the lease's raw bounds: the coordinator normalizes the
		// (0, 0) whole-cell encoding on its side, so a whole-cell push
		// stays byte-compatible with pre-sharding coordinators.
		push := ResultPush{LeaseID: lease.resp.LeaseID, Worker: id, Key: job.Key,
			TrialLo: job.TrialLo, TrialHi: job.TrialHi}
		if execErr != nil {
			push.Error = execErr.Error()
		} else {
			push.Entry = entry
		}
		ack, err := pushResult(ctx, client, base, push)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			logf("cluster: worker %s: pushing %s failed: %v", id, job.Cell, err)
			continue // the lease will expire and the cell be re-issued
		}
		if !ack.Accepted {
			logf("cluster: worker %s: %s not accepted: %s", id, job.Cell, ack.Reason)
		}
		if execErr != nil || !ack.Accepted {
			// A failing cell would otherwise ping-pong lease → fast error
			// → re-lease in a hot loop while the local pool is busy; one
			// poll interval per attempt bounds it.
			if !sleep(ctx, poll) {
				return nil
			}
		}
	}
}

// leaseResult carries the decoded lease response (or the rejection body).
type leaseResult struct {
	resp   LeaseResponse
	reject string
}

func requestLease(ctx context.Context, client *http.Client, base, id string) (leaseResult, int, error) {
	body, err := json.Marshal(LeaseRequest{Worker: id, Engine: campaign.EngineVersion, EntryFormat: campaign.CellEntryFormat})
	if err != nil {
		return leaseResult{}, 0, err
	}
	resp, err := post(ctx, client, base+"/cluster/lease", body)
	if err != nil {
		return leaseResult{}, 0, err
	}
	defer drain(resp)
	if resp.StatusCode >= 500 {
		// A proxy or restarting daemon answering 5xx is the same outage
		// as a refused connection: feed the caller's retry/reconnect
		// path instead of the fatal unexpected-status path.
		return leaseResult{}, resp.StatusCode, fmt.Errorf("coordinator answered status %d", resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		return leaseResult{}, resp.StatusCode, nil
	case http.StatusOK:
		var lr LeaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			return leaseResult{}, 0, fmt.Errorf("decoding lease: %w", err)
		}
		return leaseResult{resp: lr}, resp.StatusCode, nil
	case http.StatusConflict:
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = "engine version mismatch"
		}
		return leaseResult{reject: e.Error}, resp.StatusCode, nil
	default:
		return leaseResult{}, resp.StatusCode, nil
	}
}

func pushResult(ctx context.Context, client *http.Client, base string, push ResultPush) (ResultAck, error) {
	body, err := json.Marshal(push)
	if err != nil {
		return ResultAck{}, err
	}
	resp, err := post(ctx, client, base+"/cluster/results", body)
	if err != nil {
		return ResultAck{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return ResultAck{}, fmt.Errorf("result push: status %d", resp.StatusCode)
	}
	var ack ResultAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return ResultAck{}, fmt.Errorf("decoding ack: %w", err)
	}
	return ack, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

// drain discards the rest of the body and closes it, keeping the
// connection reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
