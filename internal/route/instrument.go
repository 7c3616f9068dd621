package route

import "repro/internal/metrics"

// InstrumentSelector returns a copy of sel with the collector wired into
// its Metrics field, recursing through FallbackSelector wrappers so nested
// Primary/Fallback selectors report too. Selector types without
// instruments (DijkstraSelector, the grid baselines) pass through
// unchanged. Selectors are values in this package, so the caller's
// original is never mutated — the instrumented copy selects identically
// (metrics are strictly observational).
func InstrumentSelector(sel Selector, m *metrics.Collector) Selector {
	if m == nil || sel == nil {
		return sel
	}
	switch s := sel.(type) {
	case MILPSelector:
		s.Metrics = m
		return s
	case BSORHeuristic:
		s.Metrics = m
		return s
	case FallbackSelector:
		s.Metrics = m
		s.Primary = InstrumentSelector(s.Primary, m)
		s.Fallback = InstrumentSelector(s.Fallback, m)
		return s
	}
	return sel
}
