package bsor

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/route"
)

// MILPBudget tunes the BSOR-MILP selector's effort: candidate-path
// enumeration and branch-and-bound limits. The zero value of a field
// means its published default.
type MILPBudget struct {
	// HopSlack is the extra hop budget over each flow's minimal path
	// length (the thesis recommends increments of 2).
	HopSlack int
	// MaxPathsPerFlow truncates exhaustive candidate enumeration.
	MaxPathsPerFlow int
	// MaxNodes caps the branch-and-bound nodes of the selection's solve.
	MaxNodes int
	// Gap is the absolute optimality gap accepted by branch and bound.
	Gap float64
}

// DefaultMILPBudget is the published-quality effort of the evaluation
// (the engine's experiments.DefaultMILP, spelled as a budget).
func DefaultMILPBudget() MILPBudget { return budgetOf(experiments.DefaultMILP()) }

// FastMILPBudget is a reduced smoke-run budget: it exercises every MILP
// code path in seconds but does not reproduce the published MCL values
// (the engine's experiments.FastMILP, spelled as a budget).
func FastMILPBudget() MILPBudget { return budgetOf(experiments.FastMILP()) }

// budgetOf reads a budget off the engine's selector, the one place the
// numbers are declared.
func budgetOf(s route.MILPSelector) MILPBudget {
	return MILPBudget{HopSlack: s.HopSlack, MaxPathsPerFlow: s.MaxPathsPerFlow,
		MaxNodes: s.MaxNodes, Gap: s.Gap}
}

func (b MILPBudget) selector() route.Selector {
	d := DefaultMILPBudget()
	if b.HopSlack == 0 {
		b.HopSlack = d.HopSlack
	}
	if b.MaxPathsPerFlow == 0 {
		b.MaxPathsPerFlow = d.MaxPathsPerFlow
	}
	if b.MaxNodes == 0 {
		b.MaxNodes = d.MaxNodes
	}
	if b.Gap == 0 {
		b.Gap = d.Gap
	}
	return route.MILPSelector{
		HopSlack: b.HopSlack, MaxPathsPerFlow: b.MaxPathsPerFlow,
		MaxNodes: b.MaxNodes, Gap: b.Gap,
	}
}

// config carries the engine options.
type config struct {
	workers int
	milp    MILPBudget
	milpSet bool
	metrics *metrics.Collector
}

// Option configures an Engine (and so every Pipeline and one-off call on
// it; Synthesize/Explore/Verify honor the subset that applies to a single
// synthesis).
type Option func(*config)

// WithWorkers sizes the job worker pool, and nothing else; 0 (the default)
// means NumCPU. Results are deterministic for any worker count.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMILPBudget tunes the BSOR-MILP selector for every spec in the
// pipeline (see MILPBudget; FastMILPBudget for smoke runs).
func WithMILPBudget(b MILPBudget) Option {
	return func(c *config) { c.milp = b; c.milpSet = true }
}

// Pipeline executes a validated list of Specs on an Engine's concurrent
// job pool: every unique (topology, workload, algorithm, VCs, breakers)
// combination is synthesized once and shared by all simulation points
// that reuse it — and by every other pipeline and one-off call on the
// same Engine. Construct with Engine.NewPipeline (or the package-level
// NewPipeline, which builds its own Engine); a Pipeline may run any
// number of times.
type Pipeline struct {
	eng   *Engine
	specs []Spec // canonical

	jobs   []experiments.Job
	specOf []int // job index -> spec index
}

// NewPipeline builds an Engine from the options and returns a Pipeline
// over specs on it; see Engine.NewPipeline.
func NewPipeline(specs []Spec, opts ...Option) (*Pipeline, error) {
	return NewEngine(opts...).NewPipeline(specs)
}

// NewPipeline validates specs and returns a Pipeline over their canonical
// forms, ready to RunAll. Invalid specs yield a *SpecError.
func (e *Engine) NewPipeline(specs []Spec) (*Pipeline, error) {
	if len(specs) == 0 {
		return nil, &SpecError{Reason: "at least one spec is required"}
	}
	p := &Pipeline{eng: e}
	for i, s := range specs {
		s, err := s.canonical(fmt.Sprintf("%s[%d]", orSpec(s.Name), i))
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, s)
		for _, j := range s.jobs(fmt.Sprintf("spec%d", i)) {
			p.jobs = append(p.jobs, j)
			p.specOf = append(p.specOf, i)
		}
	}
	return p, nil
}

func orSpec(name string) string {
	if name == "" {
		return "spec"
	}
	return name
}

// RunAll executes the pipeline to completion and returns results in job
// order (spec order, then breaker or rate order within a spec). Cancelling
// ctx stops it within one job boundary: no new job starts, the in-flight
// ones return at their next poll point, and RunAll returns the results of
// the jobs that started plus ctx.Err().
func (p *Pipeline) RunAll(ctx context.Context) ([]Result, error) {
	raw, err := p.eng.runner.RunContext(ctx, p.jobs)
	results := make([]Result, 0, len(raw))
	for i, res := range raw {
		if res.Job.Experiment == "" {
			continue // cancelled before this job started
		}
		specIdx := p.specOf[i]
		results = append(results, fromEngine(specIdx, p.specs[specIdx], res))
	}
	return results, err
}
