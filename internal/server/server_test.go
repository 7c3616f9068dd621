package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/bsor"
	"repro/internal/metrics"
)

// newTestServer builds a Server plus an httptest listener and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *metrics.Collector) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(t.Context())
	})
	return s, ts, cfg.Metrics
}

// post sends a spec document and returns the full response.
func post(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	// Every body goes out whole, even past the server's 2 KB write
	// buffer: its length in the header, not in chunked encoding.
	if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("POST %s: %d-byte body sent with Content-Length %d, Transfer-Encoding %q",
			url, len(b), resp.ContentLength, resp.TransferEncoding)
	}
	return resp, b
}

// metricValue reads one aggregated instrument from a collector.
func metricValue(c *metrics.Collector, name string) float64 {
	for _, s := range c.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

const synthSpec = `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","vcs":2}`

// TestEndpointsServeAndCacheByteIdentical covers the four compute
// endpoints plus /healthz, and the property the whole cache design
// hangs on: identical specs — any JSON field order, spelled or omitted
// defaults — produce byte-identical response bodies, within one daemon
// and across daemon instances.
func TestEndpointsServeAndCacheByteIdentical(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})

	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var synth SynthesizeResponse
	if err := json.Unmarshal(body, &synth); err != nil {
		t.Fatalf("synthesize body: %v", err)
	}
	if synth.MCL <= 0 || len(synth.Routes) != 12 || synth.Breaker == "" {
		t.Errorf("synthesize response implausible: mcl=%g routes=%d breaker=%q",
			synth.MCL, len(synth.Routes), synth.Breaker)
	}
	if synth.Spec.Algorithm != "BSOR-Dijkstra" || len(synth.Spec.Breakers) == 0 {
		t.Errorf("response must echo the canonical spec, got %+v", synth.Spec)
	}

	// Same work, different spelling: served from cache, byte-identical.
	reordered := `{"vcs":2,"workload":"transpose","topo":{"height":4,"width":4,"kind":"mesh"}}`
	resp2, body2 := post(t, ts.Client(), ts.URL+"/v1/synthesize", reordered)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("reordered request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("reordered identical spec produced different bytes")
	}

	// A fresh daemon must produce the same bytes from scratch.
	_, ts2, _ := newTestServer(t, Config{Workers: 2})
	_, body3 := post(t, ts2.Client(), ts2.URL+"/v1/synthesize", synthSpec)
	if !bytes.Equal(body, body3) {
		t.Error("a second daemon instance produced different bytes for the same spec")
	}

	resp, body = post(t, ts.Client(), ts.URL+"/v1/verify", synthSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d: %s", resp.StatusCode, body)
	}
	var verify VerifyResponse
	if err := json.Unmarshal(body, &verify); err != nil {
		t.Fatalf("verify body: %v", err)
	}
	if verify.Certificate == nil || verify.Certificate.Levels == 0 || verify.Summary == "" {
		t.Errorf("verify response missing certificate: %s", body)
	}

	resp, body = post(t, ts.Client(), ts.URL+"/v1/explore", synthSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d: %s", resp.StatusCode, body)
	}
	var explore ExploreResponse
	if err := json.Unmarshal(body, &explore); err != nil {
		t.Fatalf("explore body: %v", err)
	}
	if len(explore.Explorations) != 15 {
		t.Errorf("explore returned %d rows, want the 15 mesh breakers", len(explore.Explorations))
	}

	simSpec := `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose",
		"sim":{"rates":[2],"warmup":500,"measure":2000,"seed":1}}`
	resp, body = post(t, ts.Client(), ts.URL+"/v1/sim", simSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d: %s", resp.StatusCode, body)
	}
	var sim SimResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatalf("sim body: %v", err)
	}
	if len(sim.Results) != 1 || sim.Results[0].Point == nil {
		t.Fatalf("sim returned %d results, want 1 with a point: %s", len(sim.Results), body)
	}

	hresp, hbody := get(t, ts.Client(), ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"ok"`) {
		t.Errorf("healthz: %d %s", hresp.StatusCode, hbody)
	}
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, b
}

// TestErrorMapping pins the HTTP classification of every typed failure
// a client can provoke.
func TestErrorMapping(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})

	cases := []struct {
		name, path, body, query string
		method                  string
		wantStatus              int
		wantKind                string
		wantField               string
	}{
		{name: "GET is rejected", path: "/v1/synthesize", method: http.MethodGet,
			wantStatus: http.StatusMethodNotAllowed, wantKind: "method"},
		{name: "malformed JSON", path: "/v1/synthesize", body: `{"workload":`,
			wantStatus: http.StatusBadRequest, wantKind: "request"},
		{name: "unknown field", path: "/v1/synthesize", body: `{"workload":"transpose","typo":1}`,
			wantStatus: http.StatusBadRequest, wantKind: "request"},
		// A spec says what to compute, never how: the per-simulation thread
		// count is not a spec field, so its old spelling is an unknown one.
		{name: "removed sim.workers spelling", path: "/v1/sim",
			body:       `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","sim":{"rates":[10],"workers":4}}`,
			wantStatus: http.StatusBadRequest, wantKind: "request"},
		{name: "unknown workload", path: "/v1/synthesize", body: `{"workload":"nope"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "workload"},
		{name: "sim without sim block", path: "/v1/sim", body: synthSpec,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "sim"},
		{name: "bad timeout", path: "/v1/synthesize", body: synthSpec, query: "?timeout=banana",
			wantStatus: http.StatusBadRequest, wantKind: "request"},
		{name: "grid algorithm on a ring", path: "/v1/synthesize",
			body:       `{"topo":{"kind":"ring","nodes":6},"workload":"rand-perm","algorithm":"XY"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec"},
		{name: "explore of a baseline", path: "/v1/explore",
			body:       `{"topo":{"kind":"ring","nodes":6},"workload":"rand-perm","algorithm":"SP"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec"},
		// Sizes the topology constructors panic on, and a breaker rooted
		// outside the topology, stop at validation.
		{name: "two-node ring", path: "/v1/synthesize",
			body:       `{"topo":{"kind":"ring","nodes":2},"workload":"rand-perm"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "topo"},
		{name: "one-node fullmesh", path: "/v1/verify",
			body:       `{"topo":{"kind":"fullmesh","nodes":1},"workload":"rand-perm"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "topo"},
		{name: "one-leaf clos", path: "/v1/explore",
			body:       `{"topo":{"kind":"clos","spines":1,"leaves":1},"workload":"rand-perm"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "topo"},
		{name: "one-wide torus", path: "/v1/synthesize",
			body:       `{"topo":{"kind":"torus","width":1,"height":5},"workload":"transpose"}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "topo"},
		{name: "breaker root off the mesh", path: "/v1/synthesize",
			body:       `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","breakers":["updown@99"]}`,
			wantStatus: http.StatusBadRequest, wantKind: "spec", wantField: "breakers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			req, err := http.NewRequest(method, ts.URL+tc.path+tc.query, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, raw)
			}
			var envelope ErrorBody
			if err := json.Unmarshal(raw, &envelope); err != nil {
				t.Fatalf("error body is not the envelope: %v: %s", err, raw)
			}
			if envelope.Error.Kind != tc.wantKind {
				t.Errorf("kind = %q, want %q", envelope.Error.Kind, tc.wantKind)
			}
			if tc.wantField != "" && envelope.Error.Field != tc.wantField {
				t.Errorf("field = %q, want %q", envelope.Error.Field, tc.wantField)
			}
			if envelope.Error.Status != resp.StatusCode {
				t.Errorf("body status %d disagrees with HTTP status %d", envelope.Error.Status, resp.StatusCode)
			}
		})
	}
	// None of the above may have hurt the daemon.
	if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthSpec); resp.StatusCode != http.StatusOK {
		t.Errorf("healthy request after the error table: %d: %s", resp.StatusCode, body)
	}
}

// TestDeadlineMapsTo504: a request whose deadline cannot hold gets a
// gateway-timeout classification, whichever side of the race (waiter
// timeout vs. cancelled compute) fires first.
func TestDeadlineMapsTo504(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	slowSim := `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose",
		"sim":{"rates":[1],"warmup":1000,"measure":80000000,"seed":1}}`
	resp, body := post(t, ts.Client(), ts.URL+"/v1/sim?timeout=50ms", slowSim)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 504 (or 503 for the cancel race): %s", resp.StatusCode, body)
	}
}

// TestSingleflightHerd is the dedup contract: N identical concurrent
// requests trigger exactly one synthesis. Exactly one response is a
// cache miss; every other is deduplicated onto it (or served from the
// cache if it arrives after completion); all bodies are byte-identical.
func TestSingleflightHerd(t *testing.T) {
	const herd = 32
	_, ts, col := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	// A sim long enough (~0.1s) that the herd overlaps the computation.
	spec := `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose",
		"sim":{"rates":[2],"warmup":1000,"measure":50000,"seed":7}}`

	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		mu     sync.Mutex
		states = map[string]int{}
		bodies = map[string]int{}
		errs   []string
	)
	for range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(spec))
			if err != nil {
				mu.Lock()
				errs = append(errs, err.Error())
				mu.Unlock()
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusOK {
				errs = append(errs, fmt.Sprintf("status %d: %s", resp.StatusCode, body))
				return
			}
			states[resp.Header.Get("X-Cache")]++
			bodies[string(body)]++
		}()
	}
	close(start)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d herd requests failed, e.g. %s", len(errs), errs[0])
	}
	if got := metricValue(col, "server_computes_total"); got != 1 {
		t.Errorf("server_computes_total = %g, want exactly 1 synthesis for %d identical requests", got, herd)
	}
	if states["miss"] != 1 {
		t.Errorf("X-Cache states %v: want exactly one miss", states)
	}
	if states["miss"]+states["dedup"]+states["hit"] != herd {
		t.Errorf("X-Cache states %v do not cover the herd of %d", states, herd)
	}
	if len(bodies) != 1 {
		t.Errorf("herd observed %d distinct response bodies, want 1 (byte-identical)", len(bodies))
	}
}

// TestQueueFullSheds is the backpressure contract: with the one worker
// busy and the one queue slot taken, a third distinct spec is shed with
// 429, a Retry-After header, and the queue_full kind — and the shed is
// counted.
func TestQueueFullSheds(t *testing.T) {
	s, ts, col := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := func(name string) string {
		return fmt.Sprintf(`{"name":%q,"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose",
			"sim":{"rates":[1],"warmup":1000,"measure":80000000,"seed":1}}`, name)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"inflight", "queued"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/sim?timeout=1m", "application/json",
				strings.NewReader(slow(name)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		// Admit strictly in order: the first request must occupy the
		// worker before the second takes the queue slot.
		if name == "inflight" {
			waitFor(t, func() bool { return metricValue(col, "server_inflight") == 1 })
		} else {
			waitFor(t, func() bool { return metricValue(col, "server_queue_depth") == 1 })
		}
	}

	resp, body := post(t, ts.Client(), ts.URL+"/v1/sim", slow("shed-me"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var envelope ErrorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Kind != "queue_full" {
		t.Errorf("shed body kind = %q (%v), want queue_full", envelope.Error.Kind, err)
	}
	if got := metricValue(col, "server_shed_total"); got != 1 {
		t.Errorf("server_shed_total = %g, want 1", got)
	}

	// Tear down promptly: cancel the stuck work, then let the herd return.
	ctx, cancel := canceledContext()
	defer cancel()
	_ = s.Shutdown(ctx)
	wg.Wait()
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOneSynthesisServesFourEndpoints is the sharing contract: one spec
// posted to all four endpoints of one daemon is synthesized once — every
// first request is still a body-cache miss, but only the first reaches
// the synthesizer — and each body is byte-identical to what a fresh
// daemon answers for that endpoint alone.
func TestOneSynthesisServesFourEndpoints(t *testing.T) {
	const spec = `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose",
		"sim":{"rates":[2,4],"warmup":500,"measure":2000,"seed":1}}`
	_, ts, col := newTestServer(t, Config{Workers: 2})
	for _, ep := range []string{"synthesize", "explore", "verify", "sim"} {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/"+ep, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", ep, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s: X-Cache = %q, want miss", ep, got)
		}
		_, fresh, _ := newTestServer(t, Config{Workers: 2})
		_, alone := post(t, fresh.Client(), fresh.URL+"/v1/"+ep, spec)
		if !bytes.Equal(body, alone) {
			t.Errorf("%s: body differs from a fresh daemon's:\n%s\n--- fresh ---\n%s", ep, body, alone)
		}
	}
	if got := metricValue(col, "engine_synth_cache_misses_total"); got != 1 {
		t.Errorf("engine_synth_cache_misses_total = %g, want 1 synthesis for four endpoints", got)
	}
	// explore, verify and the two sim rates found the artifact memoized.
	if got := metricValue(col, "engine_synth_cache_hits_total"); got != 4 {
		t.Errorf("engine_synth_cache_hits_total = %g, want 4", got)
	}
}

// TestInfeasibleSpecStillExplores: a spec whose every breaker is
// infeasible is a deterministic failure kept inside the artifact, so one
// synthesis answers /v1/explore with the table of error rows and
// /v1/synthesize with the typed 422.
func TestInfeasibleSpecStillExplores(t *testing.T) {
	// A mesh turn rule cannot break a torus' wraparound cycles.
	const spec = `{"topo":{"kind":"torus","width":4,"height":4},"workload":"transpose","breakers":["E-first"]}`
	_, ts, col := newTestServer(t, Config{Workers: 2})

	resp, body := post(t, ts.Client(), ts.URL+"/v1/explore", spec)
	var explore ExploreResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &explore) != nil {
		t.Fatalf("explore: %d: %s", resp.StatusCode, body)
	}
	if len(explore.Explorations) != 1 || explore.Explorations[0].Error == "" || explore.Explorations[0].MCL != -1 {
		t.Errorf("explore rows = %+v, want one error row with MCL -1", explore.Explorations)
	}

	resp, body = post(t, ts.Client(), ts.URL+"/v1/synthesize", spec)
	var envelope ErrorBody
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		json.Unmarshal(body, &envelope) != nil || envelope.Error.Kind != "infeasible" {
		t.Errorf("synthesize: %d kind %q, want 422 infeasible: %s", resp.StatusCode, envelope.Error.Kind, body)
	}
	if got := metricValue(col, "engine_synth_cache_misses_total"); got != 1 {
		t.Errorf("engine_synth_cache_misses_total = %g, want both answers from 1 synthesis", got)
	}
}

// TestEveryExitIsCertified is the daemon's case of the bsor test of the
// same name: /v1/synthesize never reaches the simulator's validation, so
// it is certification as a step of synthesis that keeps the two-phase
// baselines' invalid one-VC route sets from being served as 200s.
func TestEveryExitIsCertified(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})
	for _, alg := range []string{"Valiant", "ROMM", "O1TURN"} {
		spec := func(vcs int) string {
			return fmt.Sprintf(`{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","algorithm":%q,"vcs":%d}`, alg, vcs)
		}
		resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", spec(1))
		var envelope ErrorBody
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &envelope) != nil ||
			envelope.Error.Kind != "counterexample" || envelope.Error.Counterexample == nil {
			t.Errorf("%s at 1 VC: %d, want 422 counterexample: %s", alg, resp.StatusCode, body)
		}
		if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", spec(2)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s at 2 VCs: %d: %s", alg, resp.StatusCode, body)
		}
	}
}

var registerPanicky = sync.OnceValue(func() error {
	return bsor.RegisterWorkload("server-test-panicky", func(bsor.TopoInfo, float64) ([]bsor.Flow, error) {
		panic("workload exploded")
	})
})

// TestPanicIsContained: a panic under a request — in caller-registered
// workload code deep inside synthesis, or in the compute/render step the
// worker runs — fails that request's whole herd with a typed 500 and
// nothing else: the daemon keeps serving and leaks no goroutine.
func TestPanicIsContained(t *testing.T) {
	if err := registerPanicky(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	col := metrics.New()
	s := New(Config{Workers: 2, Metrics: col})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/v1/render-panics", s.handle("render-panics", normalizeSynth,
		func(context.Context, bsor.Spec) (any, error) { panic("render exploded") }))
	ts := httptest.NewServer(mux)

	const herd = 16
	for _, tc := range []struct{ path, body string }{
		{"/v1/synthesize", `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"server-test-panicky"}`},
		{"/v1/render-panics", synthSpec},
	} {
		errsBefore := metricValue(col, "server_errors_total")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for range herd {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Errorf("%s: %v", tc.path, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var envelope ErrorBody
				if resp.StatusCode != http.StatusInternalServerError ||
					json.Unmarshal(raw, &envelope) != nil || envelope.Error.Kind != "internal" {
					t.Errorf("%s: %d kind %q, want 500 internal: %s", tc.path, resp.StatusCode, envelope.Error.Kind, raw)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := metricValue(col, "server_errors_total") - errsBefore; got != herd {
			t.Errorf("%s: server_errors_total rose by %g, want %d", tc.path, got, herd)
		}
		if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthSpec); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy request after the %s herd: %d: %s", tc.path, resp.StatusCode, body)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	settleGoroutines(t, before)
}
