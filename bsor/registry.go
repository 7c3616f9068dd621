package bsor

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// Flow is one application data transfer of a caller-defined workload:
// all packets from node Src to node Dst with an estimated bandwidth
// demand (MB/s throughout this API).
type Flow struct {
	// Name is a diagnostic label; empty names are filled in as "f<i>".
	Name string `json:"name,omitempty"`
	// Src and Dst are node ids in [0, nodes).
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Demand is the estimated bandwidth of the transfer (MB/s).
	Demand float64 `json:"demand"`
}

// TopoInfo describes the topology a registered workload is being built
// for, without exposing the internal topology object.
type TopoInfo struct {
	// Nodes is the node count; node ids are 0..Nodes-1.
	Nodes int
	// Grid reports whether the topology is an orthogonal grid; Width and
	// Height are its dimensions when it is (0 otherwise).
	Grid          bool
	Width, Height int
}

// WorkloadFunc builds a caller-defined workload's flows for a topology.
// demand is the Spec's per-flow demand request (0 means the caller's own
// default). Flows must have Src != Dst, ids in range, and non-negative
// demands; the pipeline validates and rejects violations per job.
type WorkloadFunc func(t TopoInfo, demand float64) ([]Flow, error)

var workloadReg = struct {
	sync.RWMutex
	m map[string]WorkloadFunc
}{m: map[string]WorkloadFunc{}}

// RegisterWorkload adds a named caller-defined workload to the registry,
// making the name usable in Spec.Workload alongside the built-ins.
// Names must be non-empty and must not collide with a built-in or an
// earlier registration.
func RegisterWorkload(name string, fn WorkloadFunc) error {
	if name == "" || fn == nil {
		return &SpecError{Field: "workload", Reason: "RegisterWorkload needs a non-empty name and a non-nil function"}
	}
	if slices.Contains(experiments.BuiltinWorkloadNames(), name) {
		return &SpecError{Field: "workload", Reason: fmt.Sprintf("%q is a built-in workload", name)}
	}
	workloadReg.Lock()
	defer workloadReg.Unlock()
	if _, dup := workloadReg.m[name]; dup {
		return &SpecError{Field: "workload", Reason: fmt.Sprintf("workload %q already registered", name)}
	}
	workloadReg.m[name] = fn
	return nil
}

// Workloads lists every workload name a Spec may use: the six thesis
// workloads, the seeded random permutation, and every registered
// workload, sorted with the built-ins first.
func Workloads() []string {
	names := experiments.BuiltinWorkloadNames()
	workloadReg.RLock()
	var custom []string
	for name := range workloadReg.m {
		custom = append(custom, name)
	}
	workloadReg.RUnlock()
	sort.Strings(custom)
	return append(names, custom...)
}

// knownWorkload reports whether name resolves to a built-in or
// registered workload.
func knownWorkload(name string) bool {
	if slices.Contains(experiments.BuiltinWorkloadNames(), name) {
		return true
	}
	workloadReg.RLock()
	_, ok := workloadReg.m[name]
	workloadReg.RUnlock()
	return ok
}

// registryHook adapts the workload registry to the engine's resolver
// hook: it is consulted for names the built-in set does not know.
func registryHook(t topology.Topology, name string, demand float64) ([]flowgraph.Flow, error) {
	workloadReg.RLock()
	fn := workloadReg.m[name]
	workloadReg.RUnlock()
	if fn == nil {
		return nil, &experiments.UnknownWorkloadError{Name: name}
	}
	info := TopoInfo{Nodes: t.NumNodes()}
	if g, ok := t.(topology.Grid); ok {
		info.Grid, info.Width, info.Height = true, g.Width(), g.Height()
	}
	flows, err := fn(info, demand)
	if err != nil {
		return nil, err
	}
	out := make([]flowgraph.Flow, len(flows))
	for i, f := range flows {
		badFlow := func(reason string, args ...any) error {
			return &SpecError{Field: "workload",
				Reason: fmt.Sprintf("registered workload %q flow %d %s", name, i, fmt.Sprintf(reason, args...))}
		}
		switch {
		case f.Src < 0 || f.Src >= info.Nodes || f.Dst < 0 || f.Dst >= info.Nodes:
			return nil, badFlow("has endpoints (%d -> %d) outside [0,%d)", f.Src, f.Dst, info.Nodes)
		case f.Src == f.Dst:
			return nil, badFlow("has equal endpoints")
		case f.Demand < 0:
			return nil, badFlow("has negative demand %g", f.Demand)
		}
		fname := f.Name
		if fname == "" {
			fname = fmt.Sprintf("f%d", i)
		}
		out[i] = flowgraph.Flow{ID: i, Name: fname,
			Src: topology.NodeID(f.Src), Dst: topology.NodeID(f.Dst), Demand: f.Demand}
	}
	return out, nil
}

// Algorithms lists the routing algorithm names a Spec may use: the BSOR
// variants (which explore acyclic CDGs and take a breaker list), the
// grid-only oblivious baselines, and the graph-generic shortest path.
func Algorithms() []string { return experiments.AlgorithmNames() }

// NormalizeAlgorithm resolves a case-insensitive algorithm name to its
// canonical form ("bsor-milp" -> "BSOR-MILP"); unknown names yield a
// *SpecError.
func NormalizeAlgorithm(name string) (string, error) {
	if canonical, ok := experiments.CanonicalAlgorithm(name); ok {
		return canonical, nil
	}
	return "", &SpecError{Field: "algorithm",
		Reason: fmt.Sprintf("unknown algorithm %q (known: %s)", name, strings.Join(Algorithms(), ", "))}
}

// DefaultBreakers returns the acyclic-CDG strategies a BSOR spec
// explores on t when Spec.Breakers is empty: the standard fifteen
// (twelve turn-model rules plus three ad hoc seeds) on a mesh, the
// twelve dateline rules on a torus, and the graph-generic up*/down* set
// (plain and escape-layered, several spanning roots) on every other
// kind. A topology that fails validation has none.
func DefaultBreakers(t Topology) []string { return experiments.DefaultBreakerNames(t.spec()) }

// KnownBreaker reports whether name resolves to a cycle-breaking
// strategy: one of the named mesh/torus breakers or the parametric
// graph-generic families "updown@<root>" and "updown-escape@<root>".
func KnownBreaker(name string) bool {
	_, err := experiments.BreakerByName(name)
	return err == nil
}
