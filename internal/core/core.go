// Package core is the BSOR framework of thesis chapter 3 — the paper's
// primary contribution. It wires the substrates together:
//
//  1. build the full channel dependence graph of the network,
//  2. derive many acyclic CDGs with different cycle-breaking strategies,
//  3. derive a flow network from each acyclic CDG,
//  4. run a route selector (MILP- or Dijkstra-based) on each flow network,
//  5. keep the route set with the smallest maximum channel load.
//
// The result is an oblivious, deadlock-free route set that a table-based
// virtual-channel router (internal/sim) executes unchanged.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
)

// ErrInfeasible reports that no explored acyclic CDG admitted routes for
// every flow: the synthesis is infeasible under the given breakers and
// hop budgets. Winner wraps it with the instance details; callers test
// with errors.Is.
var ErrInfeasible = errors.New("core: no acyclic CDG admitted routes")

// Config parameterizes one BSOR synthesis run.
type Config struct {
	// VCs is the number of virtual channels per link. Default 2.
	VCs int
	// Breakers are the acyclic-CDG strategies to explore. Default: the
	// thesis' fifteen (twelve turn-model rules + three ad hoc seeds).
	Breakers []cdg.Breaker
	// Selector chooses routes on each flow network. Default
	// route.DijkstraSelector{}; use route.MILPSelector for BSOR_MILP.
	Selector route.Selector
	// ChannelCapacity is the link bandwidth used for residual-capacity
	// Dijkstra weights (the MILP's seed route sets included). Zero means
	// 4x the largest flow demand, which puts the Dijkstra weight function
	// in its load-sensitive regime (see DESIGN.md).
	ChannelCapacity float64
}

func (c Config) withDefaults(flows []flowgraph.Flow) Config {
	if c.VCs == 0 {
		c.VCs = 2
	}
	if c.Breakers == nil {
		c.Breakers = cdg.StandardBreakers()
	}
	if c.Selector == nil {
		c.Selector = route.DijkstraSelector{}
	}
	if c.ChannelCapacity == 0 {
		max := 0.0
		for _, f := range flows {
			max = math.Max(max, f.Demand)
		}
		if max == 0 {
			max = 1
		}
		c.ChannelCapacity = 4 * max
	}
	return c
}

// Explored records the outcome of route selection under one acyclic CDG.
type Explored struct {
	// Breaker names the cycle-breaking strategy.
	Breaker string
	// MCL is the maximum channel load of the selected routes.
	MCL float64
	// AvgHops is the mean route length.
	AvgHops float64
	// Set holds the routes; nil when Err is set.
	Set *route.Set
	// Err reports why this CDG produced no routes (e.g. an ad hoc CDG
	// disconnected a flow).
	Err error
}

// ExploreContext runs the configured selector under every breaker and
// returns one Explored per breaker, in breaker order. ctx is polled before
// each breaker and inside the selector, and a cancelled exploration stops
// with the breakers completed so far plus ctx.Err().
func ExploreContext(ctx context.Context, t topology.Topology, flows []flowgraph.Flow, cfg Config) ([]Explored, error) {
	cfg = cfg.withDefaults(flows)
	full := cdg.NewFull(t, cfg.VCs)
	results := make([]Explored, 0, len(cfg.Breakers))
	for _, b := range cfg.Breakers {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		ex := Explored{Breaker: b.Name()}
		dag := b.Break(full)
		if !dag.IsAcyclic() {
			// A mesh turn rule applied to a torus leaves the wraparound
			// ring cycles intact; report it instead of letting flowgraph
			// panic.
			ex.Err = fmt.Errorf("core: breaker %s left the CDG cyclic on this topology", b.Name())
			results = append(results, ex)
			continue
		}
		g := flowgraph.New(dag, flows, cfg.ChannelCapacity)
		set, err := cfg.Selector.SelectContext(ctx, g)
		if err != nil {
			if ctx.Err() != nil {
				return results, ctx.Err()
			}
			ex.Err = err
			results = append(results, ex)
			continue
		}
		if err := set.Conforms(dag); err != nil {
			ex.Err = fmt.Errorf("core: selector violated the CDG: %w", err)
			results = append(results, ex)
			continue
		}
		ex.Set = set
		ex.MCL, _ = set.MCL()
		ex.AvgHops = set.AvgHops()
		results = append(results, ex)
	}
	return results, nil
}

// BestContext explores all breakers and returns the route set with the
// smallest MCL (ties broken by smaller average hop count, then breaker
// order), fully validated: structurally sound, CDG-conformant, and
// deadlock free. A cancelled exploration returns ctx.Err() rather than the
// best-so-far: a partial exploration would silently report a different
// optimum than the configured breaker set defines.
func BestContext(ctx context.Context, t topology.Topology, flows []flowgraph.Flow, cfg Config) (*route.Set, Explored, error) {
	results, err := ExploreContext(ctx, t, flows, cfg)
	if err != nil {
		return nil, Explored{}, err
	}
	best, err := Winner(results, flows, cfg)
	return best.Set, best, err
}

// Winner picks the best outcome of a complete exploration — smallest MCL,
// ties broken by smaller average hop count, then breaker order — and
// validates its route set: structurally sound and deadlock free under
// cfg's VC count. results must be ExploreContext's for the same flows and
// cfg; an exploration in which every breaker failed wraps ErrInfeasible.
func Winner(results []Explored, flows []flowgraph.Flow, cfg Config) (Explored, error) {
	vcs := cfg.withDefaults(flows).VCs
	best := -1
	for i, ex := range results {
		if ex.Err != nil {
			continue
		}
		if best < 0 || ex.MCL < results[best].MCL-1e-9 ||
			(math.Abs(ex.MCL-results[best].MCL) <= 1e-9 && ex.AvgHops < results[best].AvgHops) {
			best = i
		}
	}
	if best < 0 {
		return Explored{}, fmt.Errorf("%w for all %d flows (%d CDGs explored)",
			ErrInfeasible, len(flows), len(results))
	}
	set := results[best].Set
	if err := set.Validate(vcs); err != nil {
		return Explored{}, err
	}
	if err := set.DeadlockFree(vcs); err != nil {
		return Explored{}, err
	}
	return results[best], nil
}

// BSOR adapts the framework to the route.Algorithm interface so that it
// composes with the baselines in experiments and the simulator.
type BSOR struct {
	Config Config
	// Label overrides the algorithm name (e.g. "BSOR-MILP").
	Label string
}

// Name implements route.Algorithm.
func (b BSOR) Name() string {
	if b.Label != "" {
		return b.Label
	}
	if b.Config.Selector != nil {
		return b.Config.Selector.Name()
	}
	return "BSOR"
}

// Routes implements route.Algorithm.
func (b BSOR) Routes(t topology.Topology, flows []flowgraph.Flow) (*route.Set, error) {
	return b.RoutesContext(context.Background(), t, flows)
}

// RoutesContext implements route.ContextAlgorithm.
func (b BSOR) RoutesContext(ctx context.Context, t topology.Topology, flows []flowgraph.Flow) (*route.Set, error) {
	set, _, err := BestContext(ctx, t, flows, b.Config)
	return set, err
}
