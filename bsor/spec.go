package bsor

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"repro/internal/cdg"
	"repro/internal/experiments"
)

// SimSpec declares the simulation sweep of a Spec: the cycle-accurate
// wormhole model runs once per offered rate on the synthesized routes.
type SimSpec struct {
	// Rates are the offered injection rates to sweep, in packets/cycle
	// network-wide. At least one is required.
	Rates []float64 `json:"rates"`
	// Warmup and Measure are the simulated cycle counts per point;
	// 0 means the thesis' published 20000 / 100000.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Seed is the base random seed; per-point seeds derive from it, so
	// results are deterministic for any worker count.
	Seed int64 `json:"seed,omitempty"`
	// Variation enables ±percent Markov-modulated bandwidth variation
	// (0.10, 0.25, 0.50 in the thesis).
	Variation float64 `json:"variation,omitempty"`
}

// Spec declares one experiment unit: a workload routed by one algorithm
// on one topology, optionally simulated across offered rates. Specs are
// plain data and round-trip through JSON.
//
// A Spec without Sim produces one Result carrying the synthesis' maximum
// channel load (or one per explored breaker with Explore); a Spec with
// Sim produces one Result per offered rate, each carrying a simulation
// Point.
type Spec struct {
	// Name labels the spec in results and diagnostics. Optional.
	Name string `json:"name,omitempty"`
	// Topo declares the network. The zero value is the thesis' 8x8 mesh.
	Topo Topology `json:"topo"`
	// Workload names a built-in or registered workload (see Workloads).
	Workload string `json:"workload"`
	// Algorithm names the routing algorithm (see Algorithms); empty means
	// BSOR-Dijkstra.
	Algorithm string `json:"algorithm,omitempty"`
	// Breakers lists the acyclic-CDG strategies a BSOR algorithm
	// explores, by name; empty means the topology's default set
	// (DefaultBreakers). Baselines take none.
	Breakers []string `json:"breakers,omitempty"`
	// Explore makes an MCL-only BSOR spec report one Result per breaker
	// instead of the best across them (the Table 6.1/6.2 shape).
	Explore bool `json:"explore,omitempty"`
	// VCs is the virtual channel count; 0 means 2.
	VCs int `json:"vcs,omitempty"`
	// Demand overrides the per-flow bandwidth (MB/s) of synthetic
	// workloads; 0 means the published 25 MB/s. Profiled applications
	// carry fixed rates and ignore it.
	Demand float64 `json:"demand,omitempty"`
	// Capacity overrides the channel capacity (MB/s) BSOR synthesis
	// prices residual bandwidth against; 0 means 4x the largest demand.
	Capacity float64 `json:"capacity,omitempty"`
	// Sim, when non-nil, simulates the synthesized routes at each rate.
	Sim *SimSpec `json:"sim,omitempty"`
}

// validateShared checks what a Spec and a ChurnSpec both declare —
// topology, workload, VCs, demand — and returns the first offending field
// with the reason, or "".
func validateShared(topo Topology, workload string, vcs int, demand float64) (field, reason string) {
	if err := topo.validate(); err != nil {
		return "topo", err.Error()
	}
	switch {
	case workload == "":
		return "workload", fmt.Sprintf("required (known: %v)", Workloads())
	case !knownWorkload(workload):
		return "workload", fmt.Sprintf("unknown workload %q (known: %v)", workload, Workloads())
	case vcs < 0 || vcs > 32:
		return "vcs", fmt.Sprintf("%d outside [0, 32]", vcs)
	case demand < 0:
		return "demand", fmt.Sprintf("negative demand %g", demand)
	}
	return "", ""
}

// defaultAlgorithm is what an empty Spec.Algorithm means.
const defaultAlgorithm = "BSOR-Dijkstra"

// validate checks the spec against the registries and returns a
// *SpecError describing the first problem found, or nil. label
// identifies the spec in the error ("" uses Spec.Name).
func (s Spec) validate(label string) error {
	if label == "" {
		label = s.Name
	}
	fail := func(field, reason string, args ...any) error {
		return &SpecError{Spec: label, Field: field, Reason: fmt.Sprintf(reason, args...)}
	}
	if field, reason := validateShared(s.Topo, s.Workload, s.VCs, s.Demand); field != "" {
		return fail(field, "%s", reason)
	}
	alg, err := NormalizeAlgorithm(cmp.Or(s.Algorithm, defaultAlgorithm))
	if err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			se.Spec = label
		}
		return err
	}
	nodes := s.Topo.NumNodes()
	for _, name := range s.Breakers {
		b, err := experiments.BreakerByName(name)
		if err != nil {
			return fail("breakers", "unknown breaker %q", name)
		}
		// The parametric up*/down* families root a spanning order at a
		// node id, which must exist on this topology.
		root := 0
		switch b := b.(type) {
		case cdg.UpDownBreaker:
			root = int(b.Root)
		case cdg.UpDownEscapeBreaker:
			root = int(b.Root)
		}
		if root >= nodes {
			return fail("breakers", "breaker %q is rooted at node %d, outside %s's %d nodes",
				name, root, s.Topo, nodes)
		}
	}
	if len(s.Breakers) > 0 && !experiments.IsBSOR(alg) {
		return fail("breakers", "algorithm %s does not explore CDG breakers", alg)
	}
	if s.Explore {
		if !experiments.IsBSOR(alg) {
			return fail("explore", "algorithm %s does not explore CDG breakers", alg)
		}
		if s.Sim != nil {
			return fail("explore", "per-breaker exploration is MCL-only; drop Sim or Explore")
		}
	}
	if s.Capacity < 0 {
		return fail("capacity", "negative capacity %g", s.Capacity)
	}
	if s.Sim != nil {
		if len(s.Sim.Rates) == 0 {
			return fail("sim", "at least one offered rate is required")
		}
		for _, r := range s.Sim.Rates {
			if r < 0 {
				return fail("sim", "negative offered rate %g", r)
			}
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return fail("sim", "offered rate %g is not finite", r)
			}
		}
		if s.Sim.Warmup < 0 || s.Sim.Measure < 0 {
			return fail("sim", "negative cycle counts")
		}
		if s.Sim.Variation < 0 || s.Sim.Variation >= 1 {
			return fail("sim", "variation %g outside [0, 1)", s.Sim.Variation)
		}
	}
	return nil
}

// Validate checks the spec against the registries: topology kind,
// workload and algorithm names, breaker names, and simulation
// parameters. Returns a *SpecError describing the first problem, or nil.
func (s Spec) Validate() error { return s.validate("") }

// canonical is the one function that turns a Spec into what runs: it
// validates the spec (under label, as validate does) and returns it with
// every default resolved into an explicit field (see Canonical).
func (s Spec) canonical(label string) (Spec, error) {
	if err := s.validate(label); err != nil {
		return Spec{}, err
	}
	return s.withDefaults(), nil
}

// withDefaults spells out every default of a validated spec.
func (s Spec) withDefaults() Spec {
	if s.Algorithm == "" {
		s.Algorithm = defaultAlgorithm
	} else {
		s.Algorithm, _ = NormalizeAlgorithm(s.Algorithm)
	}
	if len(s.Breakers) == 0 && experiments.IsBSOR(s.Algorithm) {
		s.Breakers = DefaultBreakers(s.Topo)
	}
	if s.VCs == 0 {
		s.VCs = 2
	}
	if s.Sim != nil {
		sim := *s.Sim
		if sim.Warmup == 0 {
			sim.Warmup = 20000
		}
		if sim.Measure == 0 {
			sim.Measure = 100000
		}
		s.Sim = &sim
	}
	return s
}

// jobs expands one canonical spec into engine jobs. label tags the jobs'
// Experiment field for diagnostics.
func (s Spec) jobs(label string) []experiments.Job {
	if s.Name != "" {
		label = s.Name
	}
	base := experiments.Job{
		Experiment: label,
		Kind:       experiments.KindMCL,
		Topo:       s.Topo.spec(),
		Workload:   s.Workload,
		Algorithm:  s.Algorithm,
		Breakers:   s.Breakers,
		VCs:        s.VCs,
		Demand:     s.Demand,
		Capacity:   s.Capacity,
	}
	if s.Sim == nil {
		if !s.Explore {
			return []experiments.Job{base}
		}
		jobs := make([]experiments.Job, len(s.Breakers))
		for i, b := range s.Breakers {
			j := base
			j.Breakers = []string{b}
			jobs[i] = j
		}
		return jobs
	}
	jobs := make([]experiments.Job, len(s.Sim.Rates))
	for i, rate := range s.Sim.Rates {
		j := base
		j.Kind = experiments.KindSim
		j.Rate = rate
		j.Variation = s.Sim.Variation
		j.Warmup = s.Sim.Warmup
		j.Measure = s.Sim.Measure
		j.Seed = s.Sim.Seed
		jobs[i] = j
	}
	return jobs
}
