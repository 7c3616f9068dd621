// Package metrics is the lock-cheap observability collector behind the
// engine, LP core, simulator, and route layers: named counters, gauges,
// and timers whose hot-path writes are single atomic operations, read
// only when a reader asks (Snapshot, WritePrometheus, expvar).
//
// # Design
//
// The Gost-style buffered collector funnels increments through a channel
// into an aggregating goroutine. Here each instrument is one atomic per
// value it keeps: a counter is one int64, a timer a count, a sum and a
// max. No writer is hot enough to contend on one cache line — the
// simulator is one sequential loop that flushes its cycle count once per
// 1 024 cycles, the LP flushes its counts once per simplex run, and the
// busiest writer, the daemon's request path, makes a few tens of
// thousands of writes a second. There is no background goroutine to
// start, flush, or leak, and a write costs one atomic add.
//
// # Nil safety
//
// Everything is nil-receiver-safe: a nil *Collector hands out nil
// instruments, and writes on nil instruments are single-branch no-ops.
// Instrumented code therefore holds plain fields and calls them
// unconditionally — metrics-off costs one predictable branch per site.
//
// # Determinism
//
// Metrics are strictly out-of-band: they never enter result JSON, and
// nothing in this package feeds back into simulation or synthesis, so
// golden outputs stay byte-identical with metrics on or off at any
// worker count (the engine tests pin this).
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add records n occurrences. Nil-safe; n must be non-negative to keep
// the counter monotone (not enforced — gauges exist for deltas).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc records one occurrence. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the instrument name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-write-wins instantaneous value (queue depth,
// active-set size).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the current value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (e.g. +1 on enqueue, -1 on completion).
// Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the instrument name ("" on nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Timer accumulates durations: observation count, total time, and the
// maximum single observation. A reader can observe the count without the
// matching sum for a moment; the skew is bounded by one observation and
// irrelevant for monitoring.
type Timer struct {
	name string
	n    atomic.Int64
	sum  atomic.Int64 // nanoseconds
	max  atomic.Int64 // nanoseconds
}

// Observe records one duration. Nil-safe.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.n.Add(1)
	t.sum.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the observation count (0 on nil).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Sum returns the total observed time (0 on nil).
func (t *Timer) Sum() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sum.Load())
}

// Max returns the largest single observation (0 on nil).
func (t *Timer) Max() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.max.Load())
}

// Name returns the instrument name ("" on nil).
func (t *Timer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Collector is a registry of named instruments. Construct with New; the
// nil *Collector is a valid disabled collector whose getters return nil
// instruments (whose writes are no-ops).
type Collector struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	timers   map[string]*Timer
}

// New returns an empty enabled collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use. The same
// name always yields the same instrument. Nil-safe: a nil collector
// returns a nil (no-op) counter.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.counters[name]; ok {
		return ctr
	}
	ctr := &Counter{name: name}
	c.counters[name] = ctr
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	c.gauges[name] = g
	return g
}

// GaugeFunc registers a derived gauge evaluated at snapshot time (rates,
// ratios). Re-registering a name replaces the function. fn must be safe
// to call from any goroutine. Nil-safe no-op on a nil collector.
func (c *Collector) GaugeFunc(name string, fn func() float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gaugeFns[name] = fn
}

// Timer returns the named timer, creating it on first use. Nil-safe.
func (c *Collector) Timer(name string) *Timer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.timers[name]; ok {
		return t
	}
	t := &Timer{name: name}
	c.timers[name] = t
	return t
}

// Sample is one aggregated metric value.
type Sample struct {
	Name string
	// Kind is "counter" or "gauge" (timers expand into both).
	Kind  string
	Value float64
}

// Snapshot reads every instrument into a flat, name-sorted sample list.
// Timers expand into <name>_count, <name>_seconds_total (counters), and
// <name>_max_seconds (a gauge). Derived gauges are evaluated here.
func (c *Collector) Snapshot() []Sample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	counters := make([]*Counter, 0, len(c.counters))
	for _, ctr := range c.counters {
		counters = append(counters, ctr)
	}
	gauges := make([]*Gauge, 0, len(c.gauges))
	for _, g := range c.gauges {
		gauges = append(gauges, g)
	}
	fns := make(map[string]func() float64, len(c.gaugeFns))
	for name, fn := range c.gaugeFns {
		fns[name] = fn
	}
	timers := make([]*Timer, 0, len(c.timers))
	for _, t := range c.timers {
		timers = append(timers, t)
	}
	c.mu.Unlock()

	out := make([]Sample, 0, len(counters)+len(gauges)+len(fns)+3*len(timers))
	for _, ctr := range counters {
		out = append(out, Sample{ctr.name, "counter", float64(ctr.Value())})
	}
	for _, g := range gauges {
		out = append(out, Sample{g.name, "gauge", float64(g.Value())})
	}
	for name, fn := range fns {
		out = append(out, Sample{name, "gauge", fn()})
	}
	for _, t := range timers {
		out = append(out,
			Sample{t.name + "_count", "counter", float64(t.Count())},
			Sample{t.name + "_seconds_total", "counter", t.Sum().Seconds()},
			Sample{t.name + "_max_seconds", "gauge", t.Max().Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sanitizeProm maps an instrument name onto the Prometheus name charset
// [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitizeProm(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (one # TYPE line plus one sample per metric, name-sorted).
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	for _, s := range c.Snapshot() {
		name := sanitizeProm(s.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n",
			name, s.Kind, name, strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving WritePrometheus — the /metrics
// endpoint a Prometheus scraper reads.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WritePrometheus(w)
	})
}

// ExpvarVar returns the snapshot as an expvar.Var (a name → value map),
// for callers composing their own expvar layout.
func (c *Collector) ExpvarVar() expvar.Var {
	return expvar.Func(func() any {
		out := make(map[string]float64)
		for _, s := range c.Snapshot() {
			out[s.Name] = s.Value
		}
		return out
	})
}

// PublishExpvar publishes the snapshot map under name in the process-wide
// expvar registry (GET /debug/vars). expvar has no unpublish, so a name
// can be claimed once per process; a second claim returns an error
// instead of expvar's panic.
func (c *Collector) PublishExpvar(name string) error {
	if c == nil {
		return nil
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("metrics: expvar name %q is already published", name)
	}
	expvar.Publish(name, c.ExpvarVar())
	return nil
}

// expvarMu serializes the Get/Publish pair in PublishExpvar: the expvar
// registry itself is safe, but check-then-publish is not atomic.
var expvarMu sync.Mutex
