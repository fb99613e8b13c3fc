package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dyntreecast/internal/cluster"
)

// loopback is one cluster under test: a coordinator serving the cluster
// protocol on a loopback listener and one in-process worker joined to it.
type loopback struct {
	coord      *cluster.Coordinator
	srv        *http.Server
	served     chan error
	transport  *http.Transport
	stopWorker context.CancelFunc
	workerDone chan struct{}
	workerErr  error
}

const workerID = "perfbench-worker"

// startLoopback brings a cluster up and returns once the worker has made
// its first lease request. wrap, when non-nil, decorates the worker's HTTP
// transport.
func startLoopback(shardTrials int, wrap func(http.RoundTripper) http.RoundTripper) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &loopback{
		coord:      cluster.New(cluster.Options{ShardTrials: shardTrials}),
		served:     make(chan error, 1),
		transport:  http.DefaultTransport.(*http.Transport).Clone(),
		workerDone: make(chan struct{}),
	}
	l.srv = &http.Server{Handler: l.coord.Handler()}
	go func() { l.served <- l.srv.Serve(ln) }()

	var rt http.RoundTripper = l.transport
	if wrap != nil {
		rt = wrap(rt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.stopWorker = cancel
	opts := cluster.WorkerOptions{
		ID: workerID,
		// The worker sleeps only after an empty lease answer; a short poll
		// lets it lease as soon as a campaign opens, as a busy fleet would.
		Poll:   2 * time.Millisecond,
		Client: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	}
	go func() {
		defer close(l.workerDone)
		l.workerErr = cluster.RunWorker(ctx, "http://"+ln.Addr().String(), opts)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for len(l.coord.Workers()) == 0 {
		select {
		case <-l.workerDone:
			err := l.stop()
			return nil, fmt.Errorf("cluster worker stopped before joining: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("cluster worker did not join within 10s"), l.stop())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return l, nil
}

// stop stops the worker, then the server, and waits for both.
func (l *loopback) stop() error {
	l.stopWorker()
	<-l.workerDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := l.srv.Shutdown(ctx)
	if err := <-l.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	l.transport.CloseIdleConnections()
	return errors.Join(l.workerErr, shutErr)
}
