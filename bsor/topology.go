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

// topoLabelRe splits a label into kind, one or two sizes, and fault count
// and seed; the engine's kinds table says which of those a kind takes.
var topoLabelRe = regexp.MustCompile(`^([a-z-]+)(\d+)(?:x(\d+))?(?:-f(\d+)-s(\d+))?$`)

// ParseTopology parses the canonical String form — "mesh8x8",
// "torus4x4", "ring8", "fullmesh5", "clos4x8",
// "faulted-mesh8x8-f4-s1" — plus bare kind names ("mesh", "torus", ...),
// which take each kind's documented defaults. Anything else — including
// well-formed labels with parameters the kind cannot build, like a
// zero-size grid, a ring below three nodes, or a Clos without leaves —
// yields a *SpecError.
func ParseTopology(s string) (Topology, error) {
	if _, bare := experiments.TopoKindOf(s); bare {
		return Topology{Kind: s}, nil
	}
	spec, ok := parseLabel(s)
	if !ok {
		return Topology{}, &SpecError{Field: "topo",
			Reason: fmt.Sprintf("unparseable topology %q (want e.g. mesh8x8, torus4x4, ring8, fullmesh5, clos4x8, faulted-mesh8x8-f4-s1)", s)}
	}
	// Labels spell every parameter, so a zero here is a zero, not a default.
	if err := spec.Check(); err != nil {
		return Topology{}, &SpecError{Field: "topo", Reason: err.Error()}
	}
	return Topology(spec), nil
}

// parseLabel reads a full label: the kind must be in the table, take as
// many sizes as the label spells and be faulted exactly when the label
// carries faults, and every numeral must fit its field.
func parseLabel(s string) (spec experiments.TopoSpec, ok bool) {
	m := topoLabelRe.FindStringSubmatch(s)
	if m == nil {
		return spec, false
	}
	kind, known := experiments.TopoKindOf(m[1])
	if !known || (m[4] != "") != kind.Faulted {
		return spec, false
	}
	numerals := m[2:4]
	if m[3] == "" {
		numerals = m[2:3]
	}
	if len(numerals) != kind.NumSizes {
		return spec, false
	}
	ok = true
	atoi := func(v string) int {
		n, err := strconv.Atoi(v)
		ok = ok && err == nil
		return n
	}
	var sizes [2]int
	for i, numeral := range numerals {
		sizes[i] = atoi(numeral)
	}
	spec = kind.WithSizes(experiments.TopoSpec{Kind: kind.Name}, sizes)
	if kind.Faulted {
		spec.Faults = atoi(m[4])
		seed, err := strconv.ParseInt(m[5], 10, 64)
		spec.FaultSeed, ok = seed, ok && err == nil
	}
	return spec, ok
}

// validate applies the engine's own rules (TopoSpec.Check, which Build
// also runs first) once zero parameters have taken their kind's defaults.
func (t Topology) validate() error { return t.spec().WithDefaults().Check() }
