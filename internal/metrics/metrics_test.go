package metrics

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAggregation(t *testing.T) {
	c := New()
	ctr := c.Counter("jobs_total")
	// Write from many goroutines at once, then check no increment is lost.
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctr.Inc()
			}
		}()
	}
	wg.Wait()
	if got := ctr.Value(); got != goroutines*per {
		t.Fatalf("Value() = %d, want %d", got, goroutines*per)
	}
}

func TestCounterIdempotentByName(t *testing.T) {
	c := New()
	a := c.Counter("x")
	b := c.Counter("x")
	if a != b {
		t.Fatal("same name must yield the same *Counter")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("aliased counter Value() = %d, want 3", b.Value())
	}
}

func TestNilCollectorAndInstrumentsAreNoOps(t *testing.T) {
	var c *Collector
	ctr := c.Counter("a")
	ctr.Inc()
	ctr.Add(5)
	if ctr.Value() != 0 || ctr.Name() != "" {
		t.Fatal("nil counter must read zero")
	}
	g := c.Gauge("b")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}
	tm := c.Timer("t")
	tm.Observe(time.Second)
	if tm.Count() != 0 || tm.Sum() != 0 || tm.Max() != 0 {
		t.Fatal("nil timer must read zero")
	}
	c.GaugeFunc("f", func() float64 { return 1 })
	if c.Snapshot() != nil {
		t.Fatal("nil collector snapshot must be nil")
	}
	if err := c.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if err := c.PublishExpvar("nil-collector"); err != nil {
		t.Fatalf("nil PublishExpvar: %v", err)
	}
}

func TestGauge(t *testing.T) {
	c := New()
	g := c.Gauge("queue_depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestTimer(t *testing.T) {
	c := New()
	tm := c.Timer("job")
	tm.Observe(100 * time.Millisecond)
	tm.Observe(300 * time.Millisecond)
	tm.Observe(200 * time.Millisecond)
	if tm.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tm.Count())
	}
	if tm.Sum() != 600*time.Millisecond {
		t.Fatalf("Sum = %v, want 600ms", tm.Sum())
	}
	if tm.Max() != 300*time.Millisecond {
		t.Fatalf("Max = %v, want 300ms", tm.Max())
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	c := New()
	c.Counter("z_total").Add(2)
	c.Gauge("a_depth").Set(5)
	c.GaugeFunc("m_rate", func() float64 { return 1.5 })
	c.Timer("job").Observe(2 * time.Second)

	snap := c.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := []string{"a_depth", "job_count", "job_max_seconds", "job_seconds_total", "m_rate", "z_total"}
	if len(names) != len(want) {
		t.Fatalf("snapshot names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot names = %v, want %v", names, want)
		}
	}
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if byName["z_total"].Value != 2 || byName["z_total"].Kind != "counter" {
		t.Fatalf("z_total sample = %+v", byName["z_total"])
	}
	if byName["a_depth"].Value != 5 || byName["a_depth"].Kind != "gauge" {
		t.Fatalf("a_depth sample = %+v", byName["a_depth"])
	}
	if byName["m_rate"].Value != 1.5 {
		t.Fatalf("m_rate sample = %+v", byName["m_rate"])
	}
	if math.Abs(byName["job_seconds_total"].Value-2) > 1e-9 || byName["job_count"].Value != 1 {
		t.Fatalf("timer samples = %+v %+v", byName["job_seconds_total"], byName["job_count"])
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	c := New()
	c.Counter("lp_simplex_pivots_total").Add(42)
	c.Gauge("engine_queue_depth").Set(3)
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE engine_queue_depth gauge\nengine_queue_depth 3\n",
		"# TYPE lp_simplex_pivots_total counter\nlp_simplex_pivots_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeProm(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":   "ok_name",
		"dots.here": "dots_here",
		"0lead":     "_lead",
		"a-b c":     "a_b_c",
	} {
		if got := sanitizeProm(in); got != want {
			t.Errorf("sanitizeProm(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	c := New()
	c.Counter("sim_cycles_total").Add(9)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "sim_cycles_total 9") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestPublishExpvar(t *testing.T) {
	c := New()
	c.Counter("route_paths_kept_total").Add(4)
	const name = "metrics_test_publish"
	if err := c.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishExpvar(name); err == nil {
		t.Fatal("second publish under the same name must error")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar.Get returned nil after publish")
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar value is not a JSON map: %v", err)
	}
	if m["route_paths_kept_total"] != 4 {
		t.Fatalf("expvar map = %v", m)
	}
}

// TestConcurrentAllInstruments hammers every instrument kind from many
// goroutines; run under -race this is the collector's data-race proof.
func TestConcurrentAllInstruments(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Counter("c").Inc()
				c.Gauge("g").Add(1)
				c.Timer("t").Observe(time.Microsecond)
				if i%100 == 0 {
					c.Snapshot()
					c.GaugeFunc("fn", func() float64 { return float64(i) })
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("c").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := c.Gauge("g").Value(); got != 8*500 {
		t.Fatalf("gauge = %d, want %d", got, 8*500)
	}
	if got := c.Timer("t").Count(); got != 8*500 {
		t.Fatalf("timer count = %d, want %d", got, 8*500)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := New()
	ctr := c.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctr.Inc()
		}
	})
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var ctr *Counter
	for i := 0; i < b.N; i++ {
		ctr.Inc()
	}
}
