package main

import (
	"context"
	"fmt"
	"math"

	"repro/bsor"
	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
)

// synthReplayer re-runs a synthesis op layer by layer for the traced
// run's inner pass: the same inputs the facade got, resolved the way the
// facade resolves them, with a span around each call into a layer.
// core.BestContext runs once with span-recording breakers and selector,
// so cdg.break and route.select_* are the calls core itself made; the
// cheap calls core makes inline (NewFull, IsAcyclic, flowgraph.New,
// Conforms, Validate, DeadlockFree) are repeated standalone on the same
// graphs, and certification follows on the winning set.
type synthReplayer struct {
	tr     *tracer
	runner *experiments.Runner // resolves algorithms like the facade's engine
	lm     layers
}

func newSynthReplayer(tr *tracer, coll *metrics.Collector, lm layers) *synthReplayer {
	return &synthReplayer{tr: tr, lm: lm,
		runner: &experiments.Runner{MILP: experiments.FastMILP(), Metrics: coll}}
}

// jobOf is the engine job of a canonical synthesis spec.
func jobOf(s bsor.Spec) experiments.Job {
	return experiments.Job{
		Kind: experiments.KindMCL, Topo: experiments.TopoSpec(s.Topo),
		Workload: s.Workload, Algorithm: s.Algorithm, Breakers: s.Breakers,
		VCs: s.VCs, Demand: s.Demand, Capacity: s.Capacity,
	}
}

// spanBreaker records a cdg.break span around each Break core makes.
type spanBreaker struct {
	cdg.Breaker
	tr         *tracer
	parent, op int
}

func (b spanBreaker) Break(full *cdg.Graph) *cdg.Graph {
	id := b.tr.begin("cdg.break", b.parent, b.op)
	defer b.tr.end(id)
	return b.Breaker.Break(full)
}

// selection is one selector call core made: the flow network it was
// given and the route set it returned.
type selection struct {
	g   *flowgraph.Graph
	set *route.Set
}

// spanSelector records a route.select_* span around each selection core
// makes and keeps the graphs and sets for the standalone calls.
type spanSelector struct {
	inner      route.Selector
	span       string
	tr         *tracer
	parent, op int
	made       *[]selection
}

func (s spanSelector) Name() string { return s.inner.Name() }

func (s spanSelector) Select(g *flowgraph.Graph) (*route.Set, error) {
	return s.SelectContext(context.Background(), g)
}

func (s spanSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*route.Set, error) {
	id := s.tr.begin(s.span, s.parent, s.op)
	set, err := route.SelectWithContext(ctx, s.inner, g)
	s.tr.end(id)
	if err == nil {
		*s.made = append(*s.made, selection{g, set})
	}
	return set, err
}

// selectSpan names the span of a selector's calls.
func selectSpan(sel route.Selector) string {
	switch sel.Name() {
	case "BSOR-MILP":
		return "route.select_milp"
	case "BSOR-Heuristic":
		return "route.select_heuristic"
	}
	return "route.select_dijkstra"
}

// replay re-runs one synthesis op and fails unless it reaches the MCL
// and winning breaker the facade reported for the same op, so the spans
// describe the same work.
func (r *synthReplayer) replay(ctx context.Context, op int, spec bsor.Spec, wantMCL float64, wantBreaker string) error {
	spec, err := spec.Canonical()
	if err != nil {
		return err
	}
	job := jobOf(spec)
	tr := r.tr

	id := tr.begin("topology.build", noSpan, op)
	t, err := job.Topo.Build()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("traffic.flows", noSpan, op)
	flows, err := experiments.WorkloadFlows(t, job.Workload, job.Demand)
	tr.end(id)
	if err != nil {
		return err
	}
	alg, err := r.runner.ResolveAlgorithm(job)
	if err != nil {
		return err
	}
	in := certify.Instance{Topo: t, VCs: job.VCs, Capacity: spec.Capacity}

	if b, ok := alg.(core.BSOR); ok {
		cfg := b.Config
		id = tr.begin("cdg.full", noSpan, op)
		cdg.NewFull(t, cfg.VCs)
		tr.end(id)

		best := tr.begin("core.best", noSpan, op)
		breakers := cfg.Breakers
		if breakers == nil {
			breakers = cdg.StandardBreakers()
		}
		cfg.Breakers = make([]cdg.Breaker, len(breakers))
		for i, br := range breakers {
			cfg.Breakers[i] = spanBreaker{br, tr, best, op}
		}
		var made []selection
		cfg.Selector = spanSelector{cfg.Selector, selectSpan(cfg.Selector), tr, best, op, &made}
		set, ex, err := core.BestContext(ctx, t, flows, cfg)
		tr.end(best)
		if err != nil {
			return err
		}
		r.lm["cdg.breaks"] += float64(len(breakers))
		if mcl, _ := set.MCL(); ex.Breaker != wantBreaker || math.Abs(mcl-wantMCL) > 1e-9 {
			return fmt.Errorf("replay reached MCL %g under %s, the facade %g under %s", mcl, ex.Breaker, wantMCL, wantBreaker)
		}

		capacity := cfg.ChannelCapacity
		if capacity == 0 { // core's default: 4x the largest demand
			for _, f := range flows {
				capacity = math.Max(capacity, 4*f.Demand)
			}
		}
		for _, sel := range made {
			dag := sel.g.CDG()
			id = tr.begin("cdg.acyclic", noSpan, op)
			dag.IsAcyclic()
			tr.end(id)
			id = tr.begin("flowgraph.new", noSpan, op)
			flowgraph.New(dag, flows, capacity)
			tr.end(id)
			id = tr.begin("route.validate", noSpan, op)
			err := sel.set.Conforms(dag)
			tr.end(id)
			if err != nil {
				return err
			}
			if sel.set == set {
				in.CDG = dag
			}
		}
		in.Routes = set
	} else {
		id = tr.begin("route.baseline", noSpan, op)
		set, err := route.RoutesWithContext(ctx, alg, t, flows)
		tr.end(id)
		if err != nil {
			return err
		}
		if mcl, _ := set.MCL(); math.Abs(mcl-wantMCL) > 1e-9 {
			return fmt.Errorf("replay reached MCL %g, the facade %g", mcl, wantMCL)
		}
		in.Routes = set
	}

	id = tr.begin("route.validate", noSpan, op)
	err = in.Routes.Validate(in.VCs)
	if err == nil {
		err = in.Routes.DeadlockFree(in.VCs)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("certify.certify", noSpan, op)
	cert, err := certify.Certify(in)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("certify.check", noSpan, op)
	err = cert.Check(in)
	tr.end(id)
	return err
}
