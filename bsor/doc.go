// Package bsor is the public façade of this repository: the one supported
// entry point for synthesizing bandwidth-sensitive, deadlock-free
// oblivious routes (the BSOR framework of "Application-Aware
// Deadlock-Free Oblivious Routing", Kinsy et al.) and simulating them on
// a cycle-accurate wormhole network model.
//
// Everything underneath — topologies, channel dependence graphs, the
// LP/MILP solver, route selectors, the simulator, the concurrent sweep
// engine — lives in internal packages; callers describe work
// declaratively and never import them.
//
// # Specs
//
// A Spec declares one experiment unit: a topology, a workload, a routing
// algorithm, virtual channels, and optionally a simulation sweep. Specs
// are plain data and round-trip through JSON, so job descriptions can be
// stored, diffed, and shipped:
//
//	spec := bsor.Spec{
//		Topo:     bsor.Mesh(8, 8),
//		Workload: "transpose",
//		Algorithm: "BSOR-Dijkstra",
//		VCs:      2,
//	}
//
// Topologies, workloads, algorithms, and CDG cycle-breaking strategies
// are all named; the registries (Algorithms, Workloads, DefaultBreakers)
// enumerate the valid names, and RegisterWorkload adds caller-defined
// flow sets. A field left empty means its documented default;
// Spec.Canonical spells every default out, and that canonical form is
// what every entry point runs — no option changes what a spec means.
//
// # Pipelines
//
// A Pipeline executes a list of Specs on a worker pool (WithWorkers sizes
// it, and only it) with memoized route synthesis, one Result per unit of
// work, in spec order:
//
//	p, err := bsor.NewPipeline(specs, bsor.WithWorkers(8))
//	results, err := p.RunAll(ctx)
//
// Cancelling ctx stops the pipeline within one job boundary: no new job
// starts, in-flight synthesis and simulation return at their next
// internal poll point, and RunAll returns the results of the jobs that
// started plus ctx.Err().
//
// # Synthesis without simulation
//
// Synthesize returns the selected route set itself (with per-flow hop
// dumps, a load heatmap, and an independent deadlock-freedom check);
// Explore reports the maximum channel load under every explored acyclic
// CDG, one entry per cycle-breaking strategy; Verify returns the route
// set's independent deadlock-freedom certificate. Every synthesis ends
// with that certification: a route set the checker refutes is never
// returned, by any entry point — the error is its *Counterexample.
//
// # Engines
//
// All of the above are renderings of one synthesis per spec. The
// package-level functions each run on a throwaway Engine; a caller that
// asks several questions of the same specs holds one instead, and pays
// for each synthesis once:
//
//	e := bsor.NewEngine(bsor.WithWorkers(8))
//	table, err := e.Explore(ctx, spec)
//	best, err := e.Synthesize(ctx, spec) // no second exploration
//	p, err := e.NewPipeline(specs)       // shares the same syntheses
//
// # Errors
//
// Failures at the API boundary are typed: spec mistakes are *SpecError,
// infeasible syntheses match ErrInfeasible, grid-only algorithms or
// workloads on non-grid topologies match ErrNotGrid (all via errors.Is /
// errors.As), and context cancellation surfaces as ctx.Err().
package bsor
