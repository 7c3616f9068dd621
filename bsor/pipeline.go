package bsor

import (
	"context"
	"fmt"
	"sync"

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
	workers  int
	progress func(done, total int)
	milp     MILPBudget
	milpSet  bool
	metrics  *metrics.Collector
}

// Option configures an Engine (and so every Pipeline and one-off call on
// it; Synthesize/Explore/Verify honor the subset that applies to a single
// synthesis).
type Option func(*config)

// WithWorkers sizes the job worker pool, and nothing else; 0 (the default)
// means NumCPU. Results are deterministic for any worker count.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithProgress installs a progress callback invoked after each completed
// unit of work with the running and total counts.
//
// Contract: calls are serialized under a pipeline-owned mutex — fn never
// runs concurrently with itself, even with WithWorkers(n > 1) — and done
// increases by exactly one per call, from 1 to total (or fewer after
// cancellation). fn needs no locking of its own for state only it
// touches, but it runs on an engine worker goroutine (not the caller's),
// so it must not block for long and must not call back into the
// Pipeline. The serialization is the pipeline's own guarantee and does
// not rely on the engine serializing result delivery.
func WithProgress(fn func(done, total int)) Option {
	return func(c *config) { c.progress = fn }
}

// progressFn returns the serialized per-unit progress reporter that
// implements the WithProgress contract: the counter increment and the
// callback invocation happen under one mutex, so calls are totally
// ordered with monotonically increasing done values regardless of how
// many workers deliver results.
func (c *config) progressFn(total int) func() {
	if c.progress == nil {
		return func() {}
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		c.progress(done, total)
	}
}

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
// forms, ready to Run. Invalid specs yield a *SpecError.
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

// NumJobs reports the total units of work the pipeline will execute —
// the denominator WithProgress callbacks see.
func (p *Pipeline) NumJobs() int { return len(p.jobs) }

// Run starts the pipeline and returns a channel streaming one Result per
// unit of work as it completes (completion order depends on scheduling;
// the results' values do not). The channel closes when all work is done
// or, after cancellation, once the in-flight jobs finish — within one
// job boundary. After cancellation consult ctx.Err(); undelivered
// results are dropped.
func (p *Pipeline) Run(ctx context.Context) (<-chan Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(chan Result)
	jobs := p.jobs
	progress := p.eng.cfg.progressFn(len(jobs))
	go func() {
		defer close(out)
		_ = p.eng.runner.Stream(ctx, jobs, func(i int, res experiments.Result) {
			specIdx := p.specOf[i]
			converted := fromEngine(specIdx, p.specs[specIdx], res)
			select {
			case out <- converted:
			case <-ctx.Done():
			}
			progress()
		})
	}()
	return out, nil
}

// RunAll executes the pipeline to completion and returns results in job
// order (spec order, then breaker or rate order within a spec). On
// cancellation it returns the results completed so far plus ctx.Err().
func (p *Pipeline) RunAll(ctx context.Context) ([]Result, error) {
	jobs := p.jobs
	total := len(jobs)
	results := make([]Result, 0, total)
	filled := make([]bool, total)
	raw := make([]experiments.Result, total)
	progress := p.eng.cfg.progressFn(total)
	err := p.eng.runner.Stream(ctx, jobs, func(i int, res experiments.Result) {
		raw[i], filled[i] = res, true
		progress()
	})
	for i := range raw {
		if !filled[i] {
			continue // cancelled before this job started
		}
		specIdx := p.specOf[i]
		results = append(results, fromEngine(specIdx, p.specs[specIdx], raw[i]))
	}
	return results, err
}
