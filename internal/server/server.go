// Package server is the routing-as-a-service core behind cmd/bsord: an
// HTTP/JSON daemon serving route synthesis, CDG exploration, simulation
// sweeps, and deadlock-freedom certification over the public bsor
// facade.
//
// # Architecture
//
// Requests flow listener → body memo → admission queue → worker pool →
// engine. Two instances of one primitive (internal/memo, a bounded
// singleflight cache) do all the sharing:
//
//  1. The body memo holds rendered response bodies keyed by
//     "<endpoint> <canonical spec key>" (bsor.Spec.CanonicalKey — so
//     JSON field order and spelled-vs-omitted defaults cannot split
//     entries). A completed entry is a hit, served without touching the
//     queue; an in-flight one deduplicates concurrent misses: the first
//     request for a key (the leader) occupies one queue slot and every
//     concurrent identical request waits on the leader's entry. A
//     thundering herd of N identical specs costs one computation and
//     one slot, not N. It stores bytes, not values, because serving the
//     bytes rendered once is what makes responses byte-identical.
//  2. The engine (one bsor.Engine for the life of the Server) memoizes
//     synthesis artifacts per synthesis key, so the four endpoints of
//     one spec — and every /v1/sim rate — render a single synthesis.
//
// The admission queue is bounded. A leader finding it full is shed with
// HTTP 429 and a Retry-After hint — as is its whole herd, so a shed
// propagates one consistent answer. During shutdown the daemon drains:
// new requests and queued-but-unstarted jobs get HTTP 503 with a typed
// error, in-flight jobs run to completion (until the drain deadline
// hard-cancels them through the context plumbing), and no goroutine
// outlives Shutdown.
//
// Per-request deadlines ride context.Context end to end: the handler
// bounds its wait, and the worker derives the computation's context
// from the server's lifecycle with the leader's deadline, so a follower
// giving up early never cancels work other waiters still want.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/bsor"
	"repro/internal/memo"
	"repro/internal/metrics"
)

// Config sizes the daemon. The zero value of every field means its
// documented default.
type Config struct {
	// Workers is the job worker pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a leader finding it full is
	// shed with 429. 0 means 64.
	QueueDepth int
	// CacheEntries bounds the response cache (LRU eviction). 0 means 1024.
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the client sends
	// none; MaxTimeout caps client-requested ?timeout values. Defaults:
	// 60s and 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds request bodies. 0 means 1 MiB.
	MaxBodyBytes int64
	// FastMILP runs BSOR-MILP specs under the reduced smoke budget
	// (bsor.FastMILPBudget) instead of the published one.
	FastMILP bool
	// Metrics receives the server_* instruments (and, via
	// metrics.Register, backs the /metrics and /debug/vars endpoints).
	// nil disables collection and leaves those endpoints unmounted.
	Metrics *metrics.Collector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// job is one admitted unit of work: the body-memo entry it resolves and
// the computation producing its response body.
type job struct {
	entry   *memo.Entry[[]byte]
	timeout time.Duration
	compute func(context.Context) ([]byte, error)
}

// Server is the daemon core. Construct with New, mount Handler on an
// http.Server, and Shutdown to drain. All methods are safe for
// concurrent use.
type Server struct {
	cfg    Config
	engine *bsor.Engine
	mux    *http.ServeMux

	queue  chan *job
	bodies *memo.Memo[[]byte] // rendered bodies; entries are immutable

	baseCtx    context.Context
	baseCancel context.CancelFunc
	admit      sync.RWMutex // draining transition vs. job admission
	draining   atomic.Bool
	jobs       sync.WaitGroup // admitted jobs not yet resolved
	workers    sync.WaitGroup
	quit       chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error

	mRequests  *metrics.Counter
	mCacheHits *metrics.Counter
	mDedup     *metrics.Counter
	mComputes  *metrics.Counter
	mShed      *metrics.Counter
	mErrors    *metrics.Counter
	mInflight  *metrics.Gauge
	mRequestT  *metrics.Timer
	mComputeT  *metrics.Timer
}

// New builds a Server and starts its worker pool. Callers must
// eventually call Shutdown, even when the HTTP listener never starts.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		queue:  make(chan *job, cfg.QueueDepth),
		bodies: memo.New[[]byte](cfg.CacheEntries),
		quit:   make(chan struct{}),

		mRequests:  cfg.Metrics.Counter("server_requests_total"),
		mCacheHits: cfg.Metrics.Counter("server_cache_hits_total"),
		mDedup:     cfg.Metrics.Counter("server_dedup_total"),
		mComputes:  cfg.Metrics.Counter("server_computes_total"),
		mShed:      cfg.Metrics.Counter("server_shed_total"),
		mErrors:    cfg.Metrics.Counter("server_errors_total"),
		mInflight:  cfg.Metrics.Gauge("server_inflight"),
		mRequestT:  cfg.Metrics.Timer("server_request_seconds"),
		mComputeT:  cfg.Metrics.Timer("server_compute_seconds"),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	cfg.Metrics.GaugeFunc("server_queue_depth", func() float64 { return float64(len(s.queue)) })
	cfg.Metrics.GaugeFunc("server_cache_entries", func() float64 { return float64(s.bodies.Len()) })

	// The engine reports into the daemon's own collector, so /metrics
	// shows the engine_*, sim_* and lp_* families next to server_*.
	opts := []bsor.Option{bsor.WithMetrics((*bsor.Metrics)(cfg.Metrics))}
	if cfg.FastMILP {
		opts = append(opts, bsor.WithMILPBudget(bsor.FastMILPBudget()))
	}
	s.engine = bsor.NewEngine(opts...)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/synthesize", s.handle("synthesize", normalizeSynth, s.computeSynthesize))
	mux.HandleFunc("/v1/explore", s.handle("explore", normalizeSynth, s.computeExplore))
	mux.HandleFunc("/v1/sim", s.handle("sim", normalizeSim, s.computeSim))
	mux.HandleFunc("/v1/verify", s.handle("verify", normalizeSynth, s.computeVerify))
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Metrics != nil {
		metrics.Register(mux, cfg.Metrics)
	}
	s.mux = mux

	for range cfg.Workers {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// normalize functions pin down what each endpoint computes, so request
// fields irrelevant to the endpoint cannot split cache keys.
func normalizeSynth(spec *bsor.Spec) error {
	spec.Sim = nil
	spec.Explore = false
	return nil
}

func normalizeSim(spec *bsor.Spec) error {
	if spec.Sim == nil {
		return &bsor.SpecError{Field: "sim", Reason: "/v1/sim requires a sim block with at least one offered rate"}
	}
	spec.Explore = false
	return nil
}

// handle wires one compute endpoint: decode → canonicalize → body memo
// (hit, join a flight, or lead one through the admission queue) → wait.
func (s *Server) handle(endpoint string, normalize func(*bsor.Spec) error, fn func(context.Context, bsor.Spec) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mRequests.Inc()
		defer func() { s.mRequestT.Observe(time.Since(start)) }()
		fail := func(err error) {
			s.mErrors.Inc()
			writeErrorDetail(w, errorDetail(err))
		}

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.mErrors.Inc()
			writeErrorDetail(w, ErrorDetail{Status: http.StatusMethodNotAllowed, Kind: "method",
				Message: fmt.Sprintf("%s %s: POST a bsor spec document", r.Method, r.URL.Path)})
			return
		}
		if s.draining.Load() {
			fail(ErrShuttingDown)
			return
		}

		var spec bsor.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			fail(&badRequestError{msg: fmt.Sprintf("decode spec: %v", err)})
			return
		}
		if err := normalize(&spec); err != nil {
			fail(err)
			return
		}
		canonical, err := spec.Canonical()
		if err != nil {
			fail(err)
			return
		}
		// Spec.CanonicalKey by its definition, without validating the spec
		// a second time.
		canonicalKey, err := json.Marshal(canonical)
		if err != nil {
			fail(err)
			return
		}
		timeout, err := requestTimeout(r, s.cfg)
		if err != nil {
			fail(err)
			return
		}
		key := endpoint + " " + string(canonicalKey)
		keyHash := sha256.Sum256([]byte(key))
		w.Header().Set("X-Cache-Key", hex.EncodeToString(keyHash[:8]))

		entry, status := s.bodies.Join(key)
		state := "dedup"
		switch status {
		case memo.Hit:
			s.mCacheHits.Inc()
			body, _ := entry.Wait(r.Context()) // resolved: returns at once
			w.Header().Set("X-Cache", "hit")
			writeJSON(w, http.StatusOK, body)
			return
		case memo.Leader:
			state = "miss"
			s.enqueue(&job{entry: entry, timeout: timeout,
				compute: func(ctx context.Context) ([]byte, error) {
					v, err := fn(ctx, canonical)
					if err != nil {
						return nil, err
					}
					return marshalBody(v)
				}})
		case memo.Waiter:
			s.mDedup.Inc()
		}

		// A waiter whose deadline passes gives up alone; the shared
		// computation keeps running for the rest of the herd (and for
		// the memo).
		reqCtx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		body, err := entry.Wait(reqCtx)
		if err != nil {
			fail(err)
			return
		}
		w.Header().Set("X-Cache", state)
		writeJSON(w, http.StatusOK, body)
	}
}

// requestTimeout resolves the effective per-request deadline from the
// ?timeout query parameter, clamped to the configured ceiling.
func requestTimeout(r *http.Request, cfg Config) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, &badRequestError{msg: fmt.Sprintf("timeout %q: want a positive Go duration like 30s", raw)}
	}
	return min(d, cfg.MaxTimeout), nil
}

// enqueue admits a leader's job or resolves its entry with a typed
// admission error (queue full, shutting down) that every deduplicated
// waiter observes. The admission lock pairs with Shutdown's draining
// transition: once draining is set no new job can be admitted, so the
// jobs WaitGroup only drains.
func (s *Server) enqueue(j *job) {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.draining.Load() {
		s.bodies.Complete(j.entry, nil, ErrShuttingDown)
		return
	}
	s.jobs.Add(1)
	select {
	case s.queue <- j:
	default:
		s.jobs.Done()
		s.mShed.Inc()
		s.bodies.Complete(j.entry, nil, ErrQueueFull)
	}
}

// worker executes admitted jobs until Shutdown closes quit, then fails
// any jobs still queued (belt and braces — Shutdown drains the queue
// first) and exits.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.failJob(j, ErrShuttingDown)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one job's computation under the server's lifecycle
// context with the leader's deadline and resolves its entry: a success
// stays in the body memo, a failure reaches the waiters and is dropped.
func (s *Server) runJob(j *job) {
	defer s.jobs.Done()
	if s.draining.Load() {
		// Queued but not started when the drain began: cancelled, not run.
		s.bodies.Complete(j.entry, nil, ErrShuttingDown)
		return
	}
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)
	s.mComputes.Inc()
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	start := time.Now()
	body, err := guarded(ctx, j.compute)
	s.mComputeT.Observe(time.Since(start))
	s.bodies.Complete(j.entry, body, err)
}

// guarded runs a computation, turning a panic in compute or render into
// ErrInternal: one bad request must not kill the daemon or strand the
// herd waiting on its entry.
func guarded(ctx context.Context, compute func(context.Context) ([]byte, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			body, err = nil, fmt.Errorf("%w: %v", ErrInternal, p)
		}
	}()
	return compute(ctx)
}

// failJob resolves a job that will not run.
func (s *Server) failJob(j *job, err error) {
	s.jobs.Done()
	s.bodies.Complete(j.entry, nil, err)
}

// Shutdown drains the daemon: new requests are refused with 503,
// queued-but-unstarted jobs are cancelled with ErrShuttingDown, and
// in-flight jobs run to completion. If ctx expires first, the remaining
// in-flight work is hard-cancelled through the context plumbing (every
// long-running loop under bsor polls it) and Shutdown returns ctx's
// error after the workers exit. No server goroutine survives the call.
// Shutdown is idempotent; later calls return the first outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.admit.Lock()
		s.draining.Store(true)
		s.admit.Unlock()

		// Cancel everything admitted but not yet picked up. Workers
		// pulling concurrently resolve the same way via runJob's
		// draining check.
		for {
			select {
			case j := <-s.queue:
				s.failJob(j, ErrShuttingDown)
				continue
			default:
			}
			break
		}

		done := make(chan struct{})
		go func() { s.jobs.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			s.baseCancel() // drain deadline: hard-cancel in-flight computes
			<-done
			s.shutdownErr = ctx.Err()
		}
		close(s.quit)
		s.workers.Wait()
		s.baseCancel()
	})
	return s.shutdownErr
}

// handleHealthz reports liveness: 200 "ok" while serving, 503
// "draining" once shutdown has begun (so load balancers stop routing
// here before the listener closes).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeErrorDetail(w, ErrorDetail{Status: http.StatusMethodNotAllowed, Kind: "method",
			Message: r.Method + " /healthz"})
		return
	}
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	body, err := marshalBody(HealthResponse{Status: state})
	if err != nil {
		http.Error(w, state, status)
		return
	}
	writeJSON(w, status, body)
}

// The four compute functions are renderings of one synthesis artifact:
// whichever endpoint sees a spec first synthesizes it on the engine, the
// others find it memoized.

// computeSynthesize serves /v1/synthesize: one spec's route synthesis.
func (s *Server) computeSynthesize(ctx context.Context, spec bsor.Spec) (any, error) {
	rs, err := s.engine.Synthesize(ctx, spec)
	if err != nil {
		return nil, err
	}
	resp := SynthesizeResponse{
		Spec: spec, Breaker: rs.Breaker(), MCL: rs.MCL(), AvgHops: rs.AvgHops(),
		Bottleneck: rs.Bottleneck(), VCs: rs.VCs(), Routes: []Route{},
	}
	for _, info := range rs.Routes() {
		resp.Routes = append(resp.Routes, Route{
			Flow: info.Flow.Name, Src: info.Flow.Src, Dst: info.Flow.Dst,
			Demand: info.Flow.Demand, Hops: info.Hops,
		})
	}
	return resp, nil
}

// computeExplore serves /v1/explore: the per-breaker MCL table.
func (s *Server) computeExplore(ctx context.Context, spec bsor.Spec) (any, error) {
	rows, err := s.engine.Explore(ctx, spec)
	if err != nil {
		return nil, err
	}
	resp := ExploreResponse{Spec: spec, Explorations: make([]ExplorationRow, len(rows))}
	for i, row := range rows {
		out := ExplorationRow{Breaker: row.Breaker, MCL: row.MCL, AvgHops: row.AvgHops}
		if row.Err != nil {
			out.Error = row.Err.Error()
			out.AvgHops = 0
		}
		resp.Explorations[i] = out
	}
	return resp, nil
}

// computeSim serves /v1/sim: the spec's simulation sweep, every rate on
// the spec's one artifact.
func (s *Server) computeSim(ctx context.Context, spec bsor.Spec) (any, error) {
	p, err := s.engine.NewPipeline([]bsor.Spec{spec})
	if err != nil {
		return nil, err
	}
	results, err := p.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	if err := bsor.FirstError(results); err != nil {
		return nil, err
	}
	return SimResponse{Spec: spec, Results: results}, nil
}

// computeVerify serves /v1/verify: the independent deadlock-freedom
// certificate (a rejection surfaces the counterexample as a 422).
func (s *Server) computeVerify(ctx context.Context, spec bsor.Spec) (any, error) {
	cert, err := s.engine.Verify(ctx, spec)
	if err != nil {
		return nil, err
	}
	return VerifyResponse{Spec: spec, Certificate: cert, Summary: cert.Summary()}, nil
}
