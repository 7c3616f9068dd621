package bsor

import (
	"io"
	"net/http"

	"repro/internal/metrics"
)

// Metrics is a pipeline-scoped metrics collector: counters, gauges, and
// timers fed out-of-band by the engine, the LP core, the simulator, and
// the route selectors while a pipeline runs. Construct with NewMetrics
// and attach via WithMetrics; one collector may be shared by any number
// of pipelines (their counts then aggregate).
//
// Metrics are strictly observational — results and their JSON encodings
// are byte-identical with or without a collector attached, at any worker
// count. All methods are safe for concurrent use, including while a
// pipeline is running.
//
// It is the module's internal collector under the façade's method set, so
// a module-internal owner of a collector (the daemon) can attach the very
// same one to its Engine by pointer conversion.
type Metrics metrics.Collector

// NewMetrics returns an empty collector ready to attach via WithMetrics.
func NewMetrics() *Metrics { return (*Metrics)(metrics.New()) }

// collector returns the underlying collector (nil-safe, like its methods).
func (m *Metrics) collector() *metrics.Collector { return (*metrics.Collector)(m) }

// Snapshot returns the current aggregated values by instrument name.
// Timers expand into <name>_count, <name>_seconds_total, and
// <name>_max_seconds entries.
func (m *Metrics) Snapshot() map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, s := range m.collector().Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.collector().WritePrometheus(w)
}

// Handler returns an http.Handler serving the Prometheus text format —
// mount it at /metrics to scrape a long-running pipeline.
func (m *Metrics) Handler() http.Handler {
	return m.collector().Handler()
}

// PublishExpvar publishes the snapshot under name in the process-wide
// expvar registry (GET /debug/vars). expvar has no unpublish, so each
// name may be claimed once per process; reuse returns an error.
func (m *Metrics) PublishExpvar(name string) error {
	return m.collector().PublishExpvar(name)
}

// WithMetrics attaches a collector to the pipeline: the engine, LP core,
// simulator, and route selectors report instruments into it while the
// pipeline runs. A nil Metrics (and the default) disables collection at
// a cost of one branch per instrumentation site. Metrics never influence
// results — output is byte-identical with metrics on or off.
func WithMetrics(m *Metrics) Option {
	return func(c *config) { c.metrics = m.collector() }
}
