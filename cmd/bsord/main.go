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
	"io"
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

// options is the daemon's command line: the compute core's configuration
// and the listener's own settings.
type options struct {
	server server.Config
	addr   string
	drain  time.Duration
}

// parseOptions reads the command line into the daemon's options. The
// metrics collector is left to the caller, which publishes it.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bsord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7410", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&o.server.Workers, "workers", 0, "compute worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.server.QueueDepth, "queue", 0, "admission queue depth; full queue sheds with 429 (0 = 64)")
	fs.IntVar(&o.server.CacheEntries, "cache", 0, "response cache entries, LRU-evicted (0 = 1024)")
	fs.DurationVar(&o.server.DefaultTimeout, "timeout", 0, "default per-request compute deadline (0 = 60s)")
	fs.DurationVar(&o.server.MaxTimeout, "max-timeout", 0, "cap on client-requested ?timeout values (0 = 10m)")
	fs.Int64Var(&o.server.MaxBodyBytes, "max-body", 0, "request body size limit in bytes (0 = 1 MiB)")
	fs.BoolVar(&o.server.FastMILP, "fast", false, "run BSOR-MILP specs under the reduced smoke budget")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bsord: ")
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	o.server.Metrics = metrics.New()
	if err := o.server.Metrics.PublishExpvar("bsord"); err != nil {
		log.Fatalf("publish expvar: %v", err)
	}
	core := server.New(o.server)

	ln, err := net.Listen("tcp", o.addr)
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
		log.Printf("caught %v; draining (deadline %s)", s, o.drain)
	}
	go func() {
		<-sig
		log.Print("second signal; aborting")
		os.Exit(1)
	}()

	// Drain the compute core first so in-flight requests finish writing
	// their responses, then close the HTTP side.
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
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
