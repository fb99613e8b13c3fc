// Command campaignd serves experiment campaigns over HTTP: submit a
// declarative spec, watch per-cell results stream in, and fetch the
// aggregated artifact — the service layer over the parallel campaign
// runner (see internal/server for the endpoint contract and README.md
// "Serving campaigns" for curl examples).
//
//	campaignd -addr :8080 -cache ./cellcache
//
// Campaign results are pure functions of their specs, so the daemon is
// free to cache cells across submissions (-cache): every cell is stored
// as soon as its last trial lands. On SIGINT/SIGTERM it stops accepting
// work, drains open requests, cancels running campaigns, and exits;
// resubmitting an interrupted spec — to this daemon or a later one
// sharing the cache directory — serves the completed cells from the
// cache, runs the rest, and produces the same artifact an uninterrupted
// run would have.
//
// With -cluster the daemon becomes a cluster coordinator: the
// /cluster/lease and /cluster/results endpoints come up and every
// campaign's grid cells can be leased by remote workers, started as
//
//	campaignd -worker -join http://coordinator:8080
//
// A worker pulls cell leases, executes them on the arena pipeline, and
// pushes each shard's cell entry — its round counts — keyed by the cell's
// content address.
// Workers joining, dying, or timing out never change artifact bytes —
// unleased and abandoned cells fall back to the coordinator's local pool
// (see DESIGN.md §3e).
//
// With -store the daemon keeps a results warehouse (DESIGN.md §3h):
// campaigns cache their cells into it, finished runs are auto-ingested
// under their run ids, and the /results endpoints serve paginated
// queries, content-address diffs, and bound curves across every campaign
// ever ingested — including earlier daemon lifetimes. -store-budget
// bounds the warehouse's cell bytes with an LRU GC (-store-gc-interval
// paced), and -store-pin exempts named campaigns from eviction:
//
//	campaignd -store ./warehouse -store-budget 1073741824 -store-pin baseline
//
// Observability (README.md "Monitoring a fleet"): the daemon serves a
// Prometheus text scrape on GET /metrics and an embedded live dashboard
// on GET /. A worker has no server of its own, so -metrics ADDR brings
// up a scrape-only listener:
//
//	campaignd -worker -join http://coordinator:8080 -metrics :9091
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
	"dyntreecast/internal/metrics"
	"dyntreecast/internal/server"
	"dyntreecast/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set, split out so tests can cover parsing
// without binding sockets.
type options struct {
	addr         string
	workers      int
	cacheDir     string
	storeDir     string
	storeBudget  int64
	storeGCEvery time.Duration
	storePin     string
	drainTimeout time.Duration
	cluster      bool
	leaseTTL     time.Duration
	shardTrials  int
	worker       bool
	join         string
	poll         time.Duration
	metricsAddr  string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size per campaign (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed cell cache directory shared across campaigns (and daemon restarts: an interrupted campaign resubmitted over it resumes)")
	fs.StringVar(&o.storeDir, "store", "", "results warehouse directory: campaigns cache cells into it, finished runs are ingested, and the /results query endpoints come up (subsumes -cache)")
	fs.Int64Var(&o.storeBudget, "store-budget", 0, "cell-byte retention budget for -store; the LRU GC keeps the warehouse under this many bytes (0 = unlimited, no GC)")
	fs.DurationVar(&o.storeGCEvery, "store-gc-interval", 5*time.Minute, "how often the -store-budget GC runs (with -store-budget)")
	fs.StringVar(&o.storePin, "store-pin", "", "comma-separated campaign ids to pin: their cells are exempt from -store-budget eviction (with -store)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget")
	fs.BoolVar(&o.cluster, "cluster", false, "serve /cluster endpoints and let remote workers lease campaign cells")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", cluster.DefaultLeaseTTL, "cell lease lifetime before re-issue (with -cluster)")
	fs.IntVar(&o.shardTrials, "shard-trials", 0, "lease cells in shards of at most this many trials, so one big cell spreads across workers (with -cluster; 0 = whole cells; artifacts are identical for every value)")
	fs.BoolVar(&o.worker, "worker", false, "run as a cluster worker instead of serving (requires -join)")
	fs.StringVar(&o.join, "join", "", "coordinator base URL a -worker pulls cell leases from")
	fs.DurationVar(&o.poll, "poll", 500*time.Millisecond, "worker idle poll interval (with -worker)")
	fs.StringVar(&o.metricsAddr, "metrics", "", "serve GET /metrics on this extra address (the daemon already serves /metrics on -addr; this is how a -worker, which has no server, exposes its scrape)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.worker && o.join == "" {
		return options{}, fmt.Errorf("-worker requires -join <coordinator-url>")
	}
	if !o.cluster {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "lease-ttl" || f.Name == "shard-trials" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return options{}, fmt.Errorf("%s is only meaningful with -cluster", strings.Join(set, ", "))
		}
	}
	if o.shardTrials < 0 {
		return options{}, fmt.Errorf("-shard-trials must be >= 0")
	}
	if o.storeDir != "" && o.cacheDir != "" {
		return options{}, fmt.Errorf("-store subsumes -cache (the warehouse IS the cell cache); pass one or the other")
	}
	if o.storeDir == "" {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "store-budget" || f.Name == "store-gc-interval" || f.Name == "store-pin" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return options{}, fmt.Errorf("%s is only meaningful with -store", strings.Join(set, ", "))
		}
	}
	if o.storeBudget < 0 {
		return options{}, fmt.Errorf("-store-budget must be >= 0")
	}
	if !o.worker && o.join != "" {
		return options{}, fmt.Errorf("-join is only meaningful with -worker")
	}
	if o.worker {
		// A worker is only a lease executor: silently dropping daemon
		// flags (cache, warehouse, serving) would let a user believe
		// they are active.
		workerFlags := map[string]bool{"worker": true, "join": true, "poll": true, "metrics": true}
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !workerFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return options{}, fmt.Errorf("%s: daemon flags are not meaningful with -worker (a worker only executes leased cells)", strings.Join(stray, ", "))
		}
	}
	return o, nil
}

// build turns parsed options into a campaign server (creating cache and
// warehouse directories as needed). The returned store is non-nil
// exactly when -store is set; run starts its retention GC.
func build(o options, logf func(string, ...any)) (*server.Server, *store.Store, error) {
	opts := server.Options{Workers: o.workers, Logf: logf}
	if o.cluster {
		opts.Cluster = cluster.New(cluster.Options{LeaseTTL: o.leaseTTL, ShardTrials: o.shardTrials, Logf: logf})
	}
	if o.cacheDir != "" {
		c, err := cache.NewDir(o.cacheDir)
		if err != nil {
			return nil, nil, err
		}
		opts.Cache = cache.Instrument("dir", c)
	}
	var st *store.Store
	if o.storeDir != "" {
		var err error
		st, err = store.Open(o.storeDir)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range strings.Split(o.storePin, ",") {
			if id = strings.TrimSpace(id); id != "" {
				if err := st.Pin(id, true); err != nil {
					return nil, nil, fmt.Errorf("-store-pin: %w", err)
				}
			}
		}
		opts.Store = st
		// The warehouse doubles as the campaign cell cache: every run's
		// cells land in the GC'd area, and ingested rows point at the
		// exact bytes the run produced.
		opts.Cache = cache.Instrument("store", st.Cache())
	}
	return server.New(opts), st, nil
}

// serveMetrics starts the auxiliary /metrics listener (-metrics). The
// daemon already exposes /metrics on its main mux; this extra listener
// exists for worker mode — a worker runs no HTTP server, and its local
// counters (jobs executed, batch sizes) are invisible without one — and
// for fleets that firewall the scrape port away from the service port.
func serveMetrics(addr string, logf func(string, ...any)) (shutdown func(context.Context), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Default.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	logf("metrics on http://%s/metrics", ln.Addr())
	return func(ctx context.Context) { srv.Shutdown(ctx) }, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "campaignd: ", log.LstdFlags)
	if o.metricsAddr != "" {
		stopMetrics, err := serveMetrics(o.metricsAddr, logger.Printf)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			stopMetrics(ctx)
		}()
	}
	if o.worker {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		logger.Printf("worker joining %s", o.join)
		err := cluster.RunWorker(ctx, o.join, cluster.WorkerOptions{Poll: o.poll, Logf: logger.Printf})
		if err == nil {
			logger.Printf("worker stopped")
		}
		return err
	}
	srv, st, err := build(o, logger.Printf)
	if err != nil {
		return err
	}
	stopGC := func() {}
	if st != nil && o.storeBudget > 0 {
		stopGC = st.StartGC(o.storeGCEvery, o.storeBudget, logger.Printf)
		logger.Printf("results store %s: %d-byte budget, gc every %s", o.storeDir, o.storeBudget, o.storeGCEvery)
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", o.addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down (budget %s)", o.drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Stop the campaign engine first: cancelling campaigns flushes their
	// completed cells to the cache and terminates open /stream responses,
	// which lets the HTTP drain below complete instead of waiting on live
	// streams.
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	// After the engine and listener are quiet: stop the retention ticker
	// last so a final pass can reclaim what the drain produced. StartGC's
	// stop blocks until the goroutine is gone — nothing leaks past here.
	stopGC()
	logger.Printf("bye")
	return nil
}
