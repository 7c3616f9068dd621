package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/bsor"
	"repro/internal/metrics"
	"repro/internal/server"
)

// The two daemon workloads put an in-process server.New behind a real
// loopback net/http listener and drive it with closed-loop clients:
// bsord's callers are design tools that wait for the reply.
//
// daemon-cold sends every spec of the validity table once, to each
// endpoint back to back, so every request is a miss: decode,
// canonicalise, queue, synthesise, certify, render, and the cache write.
//
// daemon-hot warms a third of the table and then draws requests from
// those keys, each body re-spelled, so every request is a hit: the
// serve-many half, where the server and bsor.Canonical do all the work.
// A synthesis speed-up must not move it.

// daemon is one booted bsord with its loopback listener.
type daemon struct {
	srv   *server.Server
	coll  *metrics.Collector
	http  *http.Server
	url   string
	done  chan struct{} // closed when Serve returns
	conns *http.Client
}

func bootDaemon(workers int, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coll := metrics.New()
	srv := server.New(server.Config{Workers: workers, Metrics: coll})
	d := &daemon{srv: srv, coll: coll, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{}), conns: client}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return d, nil
}

// shutdown stops the listener and drains the server; no goroutine of the
// daemon survives it.
func (d *daemon) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	<-d.done
	_ = d.srv.Shutdown(ctx)
	d.conns.CloseIdleConnections()
}

// reply is what a client saw of one request.
type reply struct {
	status int
	cache  string // X-Cache: miss, hit or dedup
	body   []byte
	took   time.Duration
	err    error
}

// post sends one request and reads the whole reply; the latency runs
// from before the send until the last body byte.
func (d *daemon) post(r request) reply {
	start := time.Now()
	resp, err := d.conns.Post(d.url+"/v1/"+r.endpoint, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return reply{err: err, took: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body,
		took: time.Since(start), err: err}
}

// counter reads one of the server's instruments.
func (d *daemon) counter(name string) float64 { return float64(d.coll.Counter(name).Value()) }

// newClient builds the one HTTP client of a workload instance: a single
// transport, keep-alive on, one idle connection per closed-loop client.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
	}}
}

// closedLoop runs n ops on the given number of clients: each client takes
// the next op index off one shared ordered list and finishes it before
// taking another.
func closedLoop(clients, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// serverLayers reports the server_* collector series of one daemon.
func serverLayers(d *daemon, specs int, lm layers) {
	lm["server.computes"] = d.counter("server_computes_total")
	lm["server.computes_per_spec"] = lm["server.computes"] / float64(specs)
	lm["server.compute_s_total"] = d.coll.Timer("server_compute_seconds").Sum().Seconds()
	lm["server.cache_hits"] = d.counter("server_cache_hits_total")
	lm["server.dedup"] = d.counter("server_dedup_total")
	lm["server.shed"] = d.counter("server_shed_total")
}

// latencyLayers reports the client-observed percentiles with their
// sample count. A tail percentile is reported only when at least
// tailBeyond samples lie beyond it (0 otherwise).
func latencyLayers(st passStats, lm layers) {
	all := st.allLat()
	lm["server.req_samples"] = float64(len(all))
	lm["server.req_p50_ms"] = percentile(all, 50)
	if _, v := tailPercentile(all, 95); v > 0 {
		lm["server.req_p95_ms"] = v
	}
	if _, v := tailPercentile(all, 99); v > 0 {
		lm["server.req_p99_ms"] = v
	}
}

// canonicalMicros times Canonical + CanonicalKey per request document
// and returns the median in microseconds.
func canonicalMicros(tr *tracer, reqs []request) float64 {
	var us []float64
	for i, r := range reqs {
		id := tr.begin("op.canonical", noSpan, i)
		start := time.Now()
		c, err := r.doc.Canonical()
		if err == nil {
			_, err = c.CanonicalKey()
		}
		took := time.Since(start)
		tr.end(id)
		if err == nil {
			us = append(us, float64(took)/float64(time.Microsecond))
		}
	}
	return median(us)
}

// ---------------------------------------------------------------- cold

type daemonCold struct {
	cfg    config
	client *http.Client
	specs  []daemonSpec
	reqs   [][]request // per spec, in sending order
	d      *daemon
	// bodies holds the last pass's reply bodies by golden key, for the
	// replay pass.
	bodies map[string][]byte
}

func setupDaemonCold(cfg config, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &daemonCold{cfg: cfg, client: newClient(cfg.clients)}
	s.specs = drawSpecs(rng, specTable(cfg.short), everySlot, cfg.variant)
	for i := range s.specs {
		reqs, err := requestsOf(rng, s.specs, i, cfg.short)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, reqs)
	}
	// Warm-up on a throwaway server, so the measured one stays cold: the
	// smoke table's specs through every endpoint.
	if err := warmUpDaemon(cfg, s.client); err != nil {
		return nil, err
	}
	return s, s.prepare()
}

// warmUpDaemon serves a fixed handful of cheap requests from a server
// that is then discarded, so the HTTP stack and the synthesis code have
// run once before anything is timed.
func warmUpDaemon(cfg config, client *http.Client) error {
	d, err := bootDaemon(cfg.clients, client)
	if err != nil {
		return err
	}
	defer d.shutdown()
	rng := rand.New(rand.NewSource(1))
	specs := drawSpecs(rng, specTable(true), everySlot, 0)
	for i := range specs {
		reqs, err := requestsOf(rng, specs, i, true)
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if rep := d.post(r); rep.err != nil || rep.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %v", r.key, rep.status, rep.err)
			}
		}
	}
	return nil
}

// prepare boots a fresh server: every pass starts with an empty cache.
func (s *daemonCold) prepare() error {
	s.close()
	d, err := bootDaemon(s.cfg.clients, s.client)
	s.d = d
	return err
}

func (s *daemonCold) close() {
	if s.d != nil {
		s.d.shutdown()
		s.d = nil
	}
}

func (s *daemonCold) pass(tr *tracer) passStats {
	type outcome struct {
		req request
		rep reply
	}
	var mu sync.Mutex
	var outcomes []outcome
	closedLoop(s.cfg.clients, len(s.specs), func(i int) {
		op := tr.begin("op.spec", noSpan, i)
		for _, r := range s.reqs[i] { // one spec's endpoints back to back
			id := tr.begin("op.request."+r.endpoint, op, i)
			rep := s.d.post(r)
			tr.end(id)
			mu.Lock()
			outcomes = append(outcomes, outcome{r, rep})
			mu.Unlock()
		}
		tr.end(op)
	})

	st := passStats{lat: map[string][]float64{}}
	s.bodies = map[string][]byte{}
	for _, o := range outcomes {
		st.attempted++
		switch {
		case o.rep.err != nil || o.rep.status != http.StatusOK:
			logf("daemon-cold %s: status %d: %v", o.req.key, o.rep.status, o.rep.err)
			st.failed++
			continue
		case o.rep.cache != "miss":
			logf("daemon-cold %s: X-Cache %q, want miss", o.req.key, o.rep.cache)
			st.failed++
			continue
		case !s.cfg.golden.check(s.cfg.scale()+"/daemon/"+o.req.key, digestBytes(o.rep.body)):
			st.failed++
			continue
		}
		st.lat[o.req.endpoint] = append(st.lat[o.req.endpoint], ms(o.rep.took))
		s.bodies[o.req.key] = o.rep.body
		if o.req.endpoint == "synthesize" {
			var body server.SynthesizeResponse
			if json.Unmarshal(o.rep.body, &body) == nil {
				st.mclSum += body.MCL
			}
		}
	}
	if shed := s.d.counter("server_shed_total"); shed > 0 {
		logf("daemon-cold: server shed %g requests", shed)
		st.failed++
	}
	return st
}

func (s *daemonCold) inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats {
	ctx := context.Background()
	var st passStats
	lm["route.mcl_sum"] = traced.mclSum / float64(traced.passes)
	latencyLayers(traced, lm)
	for _, ep := range endpoints {
		lm["server.miss_"+ep+"_ms"] = median(traced.lat[ep])
	}
	serverLayers(s.d, len(s.specs), lm) // the last traced pass's server

	var all []request
	for _, reqs := range s.reqs {
		all = append(all, reqs...)
	}
	lm["bsor.canonical_us"] = canonicalMicros(tr, all)

	// Replay every spec's synthesis layer by layer against the answer the
	// daemon gave, and re-render every body from its exported struct.
	r := newSynthReplayer(tr, nil, lm)
	for i, d := range s.specs {
		var answer server.SynthesizeResponse
		if err := json.Unmarshal(s.bodies[d.key()+"/synthesize"], &answer); err != nil {
			continue // the request failed and was counted in the pass
		}
		st.attempted++
		if err := r.replay(ctx, i, d.spec, answer.MCL, answer.Breaker); err != nil {
			logf("replay %s: %v", d.key(), err)
			st.failed++
		}
		for _, req := range s.reqs[i] {
			st.attempted++
			if err := rerender(tr, i, req.endpoint, s.bodies[req.key]); err != nil {
				logf("render %s: %v", req.key, err)
				st.failed++
			}
		}
		// The facade's own entry points, on the hot third of the table
		// (all of it would double the run).
		if !hotSlot(d.slot) {
			continue
		}
		st.attempted++
		if err := facadeCalls(ctx, tr, i, d, s.cfg.short); err != nil {
			logf("facade %s: %v", d.key(), err)
			st.failed++
		}
	}
	return st
}

// rerender decodes a reply body into the endpoint's exported response
// struct and renders it again the way the server does, inside a
// server.render span; the bytes must come out the same.
func rerender(tr *tracer, op int, endpoint string, body []byte) error {
	var v any
	switch endpoint {
	case "synthesize":
		v = &server.SynthesizeResponse{}
	case "explore":
		v = &server.ExploreResponse{}
	case "verify":
		v = &server.VerifyResponse{}
	default:
		v = &server.SimResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	id := tr.begin("server.render", noSpan, op)
	again, err := json.MarshalIndent(v, "", "  ")
	tr.end(id)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(again, '\n'), body) {
		return fmt.Errorf("re-rendered %s body differs from the served one", endpoint)
	}
	return nil
}

// facadeCalls times the facade entry points the endpoints sit on.
func facadeCalls(ctx context.Context, tr *tracer, op int, d daemonSpec, short bool) error {
	id := tr.begin("bsor.synthesize", noSpan, op)
	_, err := bsor.Synthesize(ctx, d.spec)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("bsor.verify", noSpan, op)
	_, err = bsor.Verify(ctx, d.spec)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("bsor.pipeline", noSpan, op)
	defer tr.end(id)
	p, err := bsor.NewPipeline([]bsor.Spec{d.endpointSpec("sim", short)})
	if err != nil {
		return err
	}
	results, err := p.RunAll(ctx)
	if err != nil {
		return err
	}
	return bsor.FirstError(results)
}

// ----------------------------------------------------------------- hot

// hotRequests is the length of daemon-hot's op list: one pass sends this
// many requests.
const hotRequests = 60000

type daemonHot struct {
	cfg    config
	client *http.Client
	d      *daemon
	specs  int               // distinct warmed specs
	warm   map[string][]byte // golden key -> body the warm pass got
	reqs   []request
	// warmFailed counts warm-pass replies that missed their golden; the
	// first measured pass reports them.
	warmAttempted, warmFailed int
}

func setupDaemonHot(cfg config, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &daemonHot{cfg: cfg, client: newClient(cfg.clients), warm: map[string][]byte{}}
	specs := drawSpecs(rng, specTable(cfg.short), hotSlot, cfg.variant)
	s.specs = len(specs)
	d, err := bootDaemon(cfg.clients, s.client)
	if err != nil {
		return nil, err
	}
	s.d = d

	// Warm pass: every key once, on the closed-loop clients.
	var warmReqs []request
	for i := range specs {
		reqs, err := requestsOf(rng, specs, i, cfg.short)
		if err != nil {
			s.close()
			return nil, err
		}
		warmReqs = append(warmReqs, reqs...)
	}
	replies := make([]reply, len(warmReqs))
	closedLoop(cfg.clients, len(warmReqs), func(i int) { replies[i] = d.post(warmReqs[i]) })
	for i, rep := range replies {
		r := warmReqs[i]
		s.warmAttempted++
		if rep.err != nil || rep.status != http.StatusOK || rep.cache != "miss" ||
			!cfg.golden.check(cfg.scale()+"/daemon/"+r.key, digestBytes(rep.body)) {
			logf("daemon-hot warm %s: status %d cache %q: %v", r.key, rep.status, rep.cache, rep.err)
			s.warmFailed++
		}
		s.warm[r.key] = rep.body
	}

	// The measured op list: requests drawn uniformly from the warmed
	// keys, each body spelled afresh.
	n := hotRequests
	if cfg.short {
		n = 200
	}
	for i := 0; i < n; i++ {
		r := warmReqs[rng.Intn(len(warmReqs))]
		if r.body, err = spell(rng, r.doc, rng.Intn(spellings)); err != nil {
			s.close()
			return nil, err
		}
		s.reqs = append(s.reqs, r)
	}
	return s, nil
}

func (s *daemonHot) prepare() error { return nil } // the cache stays warm

func (s *daemonHot) close() {
	if s.d != nil {
		s.d.shutdown()
		s.d = nil
	}
}

func (s *daemonHot) pass(tr *tracer) passStats {
	took := make([]time.Duration, len(s.reqs))
	bad := make([]bool, len(s.reqs))
	closedLoop(s.cfg.clients, len(s.reqs), func(i int) {
		r := s.reqs[i]
		id := tr.begin("op.request."+r.endpoint, noSpan, i)
		rep := s.d.post(r)
		tr.end(id)
		took[i] = rep.took
		// Every hit body must equal the body the warm pass got for the key.
		bad[i] = rep.err != nil || rep.status != http.StatusOK || rep.cache != "hit" ||
			!bytes.Equal(rep.body, s.warm[r.key])
	})
	st := passStats{attempted: s.warmAttempted, failed: s.warmFailed, lat: map[string][]float64{}}
	s.warmAttempted, s.warmFailed = 0, 0
	for i, r := range s.reqs {
		st.attempted++
		if bad[i] {
			st.failed++
			continue
		}
		st.lat[r.endpoint] = append(st.lat[r.endpoint], ms(took[i]))
	}
	if shed := s.d.counter("server_shed_total"); shed > 0 {
		logf("daemon-hot: server shed %g requests", shed)
		st.failed++
	}
	return st
}

func (s *daemonHot) inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats {
	var st passStats
	latencyLayers(traced, lm)
	serverLayers(s.d, s.specs, lm)

	// Replay: the hit path without the socket — decode, canonicalise,
	// LRU lookup and write — on a recorder, for a sample of the op list.
	sample := s.reqs[:min(len(s.reqs), 2000)]
	handler := s.d.srv.Handler()
	var us []float64
	for i, r := range sample {
		st.attempted++
		req := httptest.NewRequest(http.MethodPost, "/v1/"+r.endpoint, bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		id := tr.begin("op.hit_handler", noSpan, i)
		start := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(start)
		tr.end(id)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" ||
			!bytes.Equal(rec.Body.Bytes(), s.warm[r.key]) {
			st.failed++
			continue
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	lm["server.hit_handler_us"] = median(us)
	lm["server.http_overhead_us"] = lm["server.req_p50_ms"]*1000 - lm["server.hit_handler_us"]
	lm["bsor.canonical_us"] = canonicalMicros(tr, sample)
	return st
}
