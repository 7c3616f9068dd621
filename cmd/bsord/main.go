// Command bsord serves BSOR route synthesis as a daemon: the bsor
// facade behind an HTTP/JSON API with a shared route-set cache,
// singleflight deduplication, bounded-queue backpressure, and graceful
// drain on SIGINT/SIGTERM.
//
// Endpoints (POST a bsor.Spec JSON document):
//
//	/v1/synthesize   winning deadlock-free route set for the spec
//	/v1/explore      per-breaker MCL table (BSOR algorithms only)
//	/v1/sim          cycle-accurate sweep (spec must carry a "sim" block)
//	/v1/verify       independent deadlock-freedom certificate
//	/healthz         200 "ok" while serving, 503 "draining" during drain
//	/metrics         Prometheus text exposition
//	/debug/vars      expvar JSON (collector published as "bsord")
//
// On startup the daemon prints "bsord: listening on http://<addr>" to
// stdout — with -addr :0 this is how scripts learn the bound port.
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
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

var (
	addr       = flag.String("addr", "127.0.0.1:7410", "listen address (host:port; port 0 picks a free port)")
	workers    = flag.Int("workers", 0, "compute worker-pool size (0 = GOMAXPROCS)")
	queue      = flag.Int("queue", 0, "admission queue depth; full queue sheds with 429 (0 = 64)")
	cacheSize  = flag.Int("cache", 0, "response cache entries, LRU-evicted (0 = 1024)")
	timeout    = flag.Duration("timeout", 0, "default per-request compute deadline (0 = 60s)")
	maxTimeout = flag.Duration("max-timeout", 0, "cap on client-requested ?timeout values (0 = 10m)")
	maxBody    = flag.Int64("max-body", 0, "request body size limit in bytes (0 = 1 MiB)")
	fast       = flag.Bool("fast", false, "run BSOR-MILP specs under the reduced smoke budget")
	drain      = flag.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bsord: ")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments: %v", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	col := metrics.New()
	if err := col.PublishExpvar("bsord"); err != nil {
		log.Fatalf("publish expvar: %v", err)
	}
	core := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		FastMILP:       *fast,
		Metrics:        col,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           core.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Stdout, not the log: scripts parse this line for the bound port.
	fmt.Printf("bsord: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("caught %v; draining (deadline %s)", s, *drain)
	}
	go func() {
		<-sig
		log.Print("second signal; aborting")
		os.Exit(1)
	}()

	// Drain the compute core first so in-flight requests finish writing
	// their responses, then close the HTTP side.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := core.Shutdown(ctx)
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = httpSrv.Close()
	}
	if drainErr != nil {
		log.Printf("drain incomplete: %v (remaining work was cancelled)", drainErr)
		os.Exit(1)
	}
	log.Print("drained cleanly")
}
