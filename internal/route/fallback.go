package route

import (
	"context"
	"fmt"

	"repro/internal/flowgraph"
	"repro/internal/metrics"
)

// FallbackSelector is the repair path of an online re-synthesis loop: one
// Primary solve and, when that fails, the Fallback selector (typically
// BSORHeuristic). The primary is not retried: every selector here is a
// deterministic function of the graph, so a second attempt recomputes the
// first's failure.
// Cancellation of ctx is not a solver failure: it is returned as
// ctx.Err() and the fallback is not consulted.
type FallbackSelector struct {
	Primary Selector
	// Fallback answers after Primary has failed. Nil means the primary's
	// error is returned instead.
	Fallback Selector
	// Metrics, when non-nil, counts fallback consultations
	// (route_retry_fallbacks_total); InstrumentSelector sets it.
	Metrics *metrics.Collector
}

// Name implements Selector.
func (fs FallbackSelector) Name() string { return fs.Primary.Name() }

// SelectContext implements Selector.
func (fs FallbackSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	set, perr := fs.Primary.SelectContext(ctx, g)
	if perr == nil {
		return set, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fs.Fallback == nil {
		return nil, perr
	}
	fs.Metrics.Counter("route_retry_fallbacks_total").Inc()
	set, err := fs.Fallback.SelectContext(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("route: fallback after primary failed (%v): %w", perr, err)
	}
	return set, nil
}
