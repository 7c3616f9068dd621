package lp

import "repro/internal/metrics"

// Instruments are optional counters fed by the solver hot loops: simplex
// pivots (primal and dual), basis refactorizations, branch-and-bound
// nodes, and — to show what the warm-start path costs when it fails — the
// warm solves that fell back to a cold two-phase solve and the pivots spent
// in phase 1. The zero value is fully disabled — nil counters make every
// update a no-op — so instrumentation costs nothing unless a collector
// wires real counters in. Counts are flushed in bulk at loop exits, not
// per pivot, keeping the inner loops free of shared-memory traffic.
type Instruments struct {
	Pivots           *metrics.Counter
	Refactorizations *metrics.Counter
	Nodes            *metrics.Counter
	ColdFallbacks    *metrics.Counter
	Phase1Pivots     *metrics.Counter
}
