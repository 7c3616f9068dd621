package bsor

import (
	"fmt"
	"regexp"
	"strconv"

	"repro/internal/experiments"
)

// Topology declares a network by kind and parameters. The zero value
// defaults to the thesis' 8x8 mesh. Topologies are plain data (JSON
// round-trippable); the constructors below cover every supported kind.
//
// Kinds and their parameters:
//
//	mesh, torus                  Width x Height grid
//	ring, fullmesh               Nodes
//	clos                         Spines x Leaves folded Clos (fat tree)
//	faulted-mesh, faulted-torus  Width x Height grid with Faults failed
//	                             links removed under seed FaultSeed
type Topology struct {
	// Kind names the topology family; see above. Empty means "mesh".
	Kind string `json:"kind"`
	// Width and Height are the grid dimensions of the grid-derived kinds.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Nodes is the node count of a ring or fullmesh.
	Nodes int `json:"nodes,omitempty"`
	// Spines and Leaves are the two levels of a clos.
	Spines int `json:"spines,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	// Faults is the number of failed links of a faulted-* kind; FaultSeed
	// selects which links fail while connectivity is preserved.
	Faults    int   `json:"faults,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// Mesh declares a width x height mesh.
func Mesh(width, height int) Topology {
	return Topology{Kind: "mesh", Width: width, Height: height}
}

// Torus declares a width x height torus.
func Torus(width, height int) Topology {
	return Topology{Kind: "torus", Width: width, Height: height}
}

// Ring declares an n-node bidirectional ring.
func Ring(n int) Topology { return Topology{Kind: "ring", Nodes: n} }

// FullMesh declares an n-node complete graph.
func FullMesh(n int) Topology { return Topology{Kind: "fullmesh", Nodes: n} }

// FoldedClos declares a spines x leaves folded Clos (fat tree).
func FoldedClos(spines, leaves int) Topology {
	return Topology{Kind: "clos", Spines: spines, Leaves: leaves}
}

// FaultedMesh declares a width x height mesh with faults failed links
// removed under seed (connectivity preserved).
func FaultedMesh(width, height, faults int, seed int64) Topology {
	return Topology{Kind: "faulted-mesh", Width: width, Height: height,
		Faults: faults, FaultSeed: seed}
}

// FaultedTorus declares a width x height torus with faults failed links
// removed under seed (connectivity preserved).
func FaultedTorus(width, height, faults int, seed int64) Topology {
	return Topology{Kind: "faulted-torus", Width: width, Height: height,
		Faults: faults, FaultSeed: seed}
}

// spec converts to the engine's topology declaration (field-for-field).
func (t Topology) spec() experiments.TopoSpec { return experiments.TopoSpec(t) }

// String returns the compact canonical label, e.g. "mesh8x8", "ring8",
// "clos4x8", or "faulted-mesh8x8-f4-s1". ParseTopology inverts it.
func (t Topology) String() string { return t.spec().String() }

// NumNodes reports the node count the declared topology will have,
// without building it.
func (t Topology) NumNodes() int { return t.spec().NumNodes() }

// IsGrid reports whether the declared topology is a full orthogonal grid
// (mesh or torus), on which the grid-specific algorithms, workloads, and
// breaker defaults apply.
func (t Topology) IsGrid() bool { return t.spec().IsGrid() }

var (
	topoGridRe    = regexp.MustCompile(`^(mesh|torus|clos)(\d+)x(\d+)$`)
	topoNodesRe   = regexp.MustCompile(`^(ring|fullmesh)(\d+)$`)
	topoFaultedRe = regexp.MustCompile(`^(faulted-mesh|faulted-torus)(\d+)x(\d+)-f(\d+)-s(\d+)$`)
)

// ParseTopology parses the canonical String form — "mesh8x8",
// "torus4x4", "ring8", "fullmesh5", "clos4x8",
// "faulted-mesh8x8-f4-s1" — plus bare kind names ("mesh", "torus", ...),
// which take each kind's documented defaults. Anything else — including
// well-formed labels with parameters the kind cannot build, like a
// zero-size grid, a ring below three nodes, or a Clos without leaves —
// yields a *SpecError.
func ParseTopology(s string) (Topology, error) {
	atoi := func(v string) int { n, _ := strconv.Atoi(v); return n }
	var t Topology
	switch {
	case s == "mesh" || s == "torus" || s == "ring" || s == "fullmesh" ||
		s == "clos" || s == "faulted-mesh" || s == "faulted-torus":
		return Topology{Kind: s}, nil
	case topoGridRe.MatchString(s):
		m := topoGridRe.FindStringSubmatch(s)
		t = Topology{Kind: m[1], Width: atoi(m[2]), Height: atoi(m[3])}
		if m[1] == "clos" {
			t = FoldedClos(atoi(m[2]), atoi(m[3]))
		}
	case topoNodesRe.MatchString(s):
		m := topoNodesRe.FindStringSubmatch(s)
		t = Topology{Kind: m[1], Nodes: atoi(m[2])}
	case topoFaultedRe.MatchString(s):
		m := topoFaultedRe.FindStringSubmatch(s)
		seed, _ := strconv.ParseInt(m[5], 10, 64)
		t = Topology{Kind: m[1], Width: atoi(m[2]), Height: atoi(m[3]),
			Faults: atoi(m[4]), FaultSeed: seed}
	default:
		return Topology{}, &SpecError{Field: "topo",
			Reason: fmt.Sprintf("unparseable topology %q (want e.g. mesh8x8, torus4x4, ring8, fullmesh5, clos4x8, faulted-mesh8x8-f4-s1)", s)}
	}
	if err := t.checkParams(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// knownTopoKinds mirrors the engine's TopoSpec.Build switch.
var knownTopoKinds = map[string]bool{
	"": true, "mesh": true, "torus": true, "ring": true, "fullmesh": true,
	"clos": true, "faulted-mesh": true, "faulted-torus": true,
}

// validate rejects declarations the engine cannot build — unknown kinds,
// negative parameters, and, once zero parameters have taken their kind's
// defaults, sizes the constructors refuse — so that no spec passing
// validation can panic a constructor.
func (t Topology) validate() *SpecError {
	if !knownTopoKinds[t.Kind] {
		return &SpecError{Field: "topo", Reason: fmt.Sprintf("unknown topology kind %q", t.Kind)}
	}
	if t.Width < 0 || t.Height < 0 || t.Nodes < 0 ||
		t.Spines < 0 || t.Leaves < 0 || t.Faults < 0 {
		return &SpecError{Field: "topo", Reason: fmt.Sprintf("negative topology parameter in %+v", t)}
	}
	return Topology(t.spec().WithDefaults()).checkParams()
}

// checkParams rejects parameter values the declared kind cannot build:
// zero-size grids, undersized rings and full meshes, and Clos fabrics
// missing a level. Zero is taken literally here (ParseTopology labels
// spell every parameter); validate applies the defaults first.
func (t Topology) checkParams() *SpecError {
	bad := func(reason string, args ...any) *SpecError {
		return &SpecError{Field: "topo",
			Reason: fmt.Sprintf("%s: ", t.Kind) + fmt.Sprintf(reason, args...)}
	}
	switch t.Kind {
	case "mesh", "torus", "faulted-mesh", "faulted-torus":
		if t.Width < 1 || t.Height < 1 {
			return bad("zero-size grid %dx%d (both dimensions must be at least 1)", t.Width, t.Height)
		}
	case "ring":
		if t.Nodes < 3 {
			return bad("%d nodes (a ring needs at least 3)", t.Nodes)
		}
	case "fullmesh":
		if t.Nodes < 2 {
			return bad("%d nodes (a full mesh needs at least 2)", t.Nodes)
		}
	case "clos":
		if t.Spines < 1 || t.Leaves < 2 {
			return bad("%d spines x %d leaves (a folded Clos needs at least 1 spine and 2 leaves)", t.Spines, t.Leaves)
		}
	}
	return nil
}
