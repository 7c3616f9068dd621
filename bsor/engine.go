package bsor

import (
	"context"
	"fmt"

	"repro/internal/experiments"
)

// Engine is the long-lived handle behind every entry point of this
// package: one configured synthesis engine with one memo of certified
// synthesis artifacts. Whatever is asked about a spec — its route set
// (Synthesize), its per-breaker table (Explore), its certificate
// (Verify), its simulation sweep (a Pipeline) — renders the same
// artifact, synthesized once per unique (topology, workload, algorithm,
// VCs, breakers, demand, capacity) combination for the life of the
// Engine. Successful syntheses and deterministic failures (an infeasible
// spec, a rejected certificate) are retained under a fixed LRU bound;
// cancelled ones never are.
//
// Build one with NewEngine and share it; all methods are safe for
// concurrent use. The package-level Synthesize, Explore, Verify,
// NewPipeline and RunChurn run on a throwaway Engine.
type Engine struct {
	runner *experiments.Runner
}

// NewEngine builds an Engine from the options.
func NewEngine(opts ...Option) *Engine {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	r := &experiments.Runner{
		Workers:    cfg.workers,
		WorkloadFn: registryHook,
		Metrics:    cfg.metrics,
	}
	if cfg.milpSet {
		r.MILP = cfg.milp.selector()
	}
	return &Engine{runner: r}
}

// job resolves a spec to its synthesis job. The spec's Sim and Explore
// fields are ignored: they select a rendering of the artifact, not a
// synthesis.
func (e *Engine) job(spec Spec) (experiments.Job, error) {
	spec.Sim = nil
	spec.Explore = false
	spec, err := spec.canonical("")
	if err != nil {
		return experiments.Job{}, err
	}
	return spec.jobs("synthesize")[0], nil
}

// Synthesize returns one spec's selected route set: BSOR variants explore
// the spec's breakers and keep the best MCL, baselines route directly.
func (e *Engine) Synthesize(ctx context.Context, spec Spec) (*RouteSet, error) {
	job, err := e.job(spec)
	if err != nil {
		return nil, err
	}
	art, err := e.runner.Synthesize(ctx, job)
	if err == nil {
		err = art.Err
	}
	if err != nil {
		return nil, classify(err)
	}
	return &RouteSet{art: art}, nil
}

// Explore reports the maximum channel load one BSOR spec reaches under
// every breaker of its exploration set, in breaker order — the per-CDG
// table the thesis' chapter 6 opens with. A spec whose every breaker is
// infeasible still yields its table (each row carrying its error); only
// Synthesize fails on it.
func (e *Engine) Explore(ctx context.Context, spec Spec) ([]Exploration, error) {
	job, err := e.job(spec)
	if err != nil {
		return nil, err
	}
	if !experiments.IsBSOR(job.Algorithm) {
		return nil, &SpecError{Spec: spec.Name, Field: "algorithm",
			Reason: fmt.Sprintf("%s does not explore CDG breakers", job.Algorithm)}
	}
	art, err := e.runner.Synthesize(ctx, job)
	if err != nil {
		return nil, err
	}
	if art.Explored == nil {
		return nil, classify(art.Err) // failed before any CDG was explored
	}
	out := make([]Exploration, len(art.Explored))
	for i, ex := range art.Explored {
		out[i] = Exploration{Breaker: ex.Breaker, MCL: ex.MCL, AvgHops: ex.AvgHops,
			Err: classify(ex.Err)}
		if ex.Err != nil {
			out[i].MCL = -1
		}
	}
	return out, nil
}

// Verify returns the independent deadlock-freedom certificate of one
// spec's route set — Synthesize followed by RouteSet.Certify. On
// rejection the error carries a *Counterexample: from Synthesize when the
// routes themselves are refuted, from Certify when only an explicit
// Spec.Capacity is exceeded.
func (e *Engine) Verify(ctx context.Context, spec Spec) (*Certificate, error) {
	rs, err := e.Synthesize(ctx, spec)
	if err != nil {
		return nil, err
	}
	return rs.Certify()
}
