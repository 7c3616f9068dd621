package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/cdg"
	"repro/internal/topology"
)

// TopoSpec declares a topology by kind and parameters, so that a Job is
// fully serializable. The zero value defaults to the thesis' 8x8 mesh.
//
// Kinds and their parameters (the topoKinds table):
//
//	mesh, torus                  Width x Height grid
//	ring, fullmesh               Nodes
//	clos                         Spines x Leaves folded Clos (fat tree)
//	faulted-mesh, faulted-torus  Width x Height grid with Faults failed
//	                             links removed under seed FaultSeed
//
// Unknown kinds and invalid parameters fail at Build, so a declarative
// job with a misspelled topology errors loudly instead of silently
// running on a default mesh.
type TopoSpec struct {
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
	// selects which links fail (topology.Faulted).
	Faults    int   `json:"faults,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// TopoKind is one row of the topology vocabulary. Everything that
// interprets a TopoSpec — defaults, validation, labels and their parser,
// construction, default breakers — reads this table.
type TopoKind struct {
	// Name is the kind as specs and labels spell it.
	Name string
	// Faulted marks the kinds whose specs and labels also carry Faults and
	// FaultSeed.
	Faulted bool
	topoShape

	min      [2]int // the least the constructor accepts
	reason   string // words an undersized declaration; verbs index the two sizes, then min's two
	build    func(TopoSpec) topology.Topology
	breakers func() []string // default exploration set, shared: clone before handing out; nil means the graph-generic one
}

// topoShape says which TopoSpec fields size a kind. Sizes travel as [2]int
// in label order; a shape with one size leaves the second zero.
type topoShape struct {
	// Grid marks the kinds sized by Width x Height.
	Grid bool
	// NumSizes is how many sizes a label of this kind spells.
	NumSizes int

	// WithSizes returns the spec with the fields that size this kind set.
	WithSizes func(TopoSpec, [2]int) TopoSpec

	defaults [2]int // what a zero size means
	sizes    func(TopoSpec) [2]int
}

var topoKinds = func() []TopoKind {
	grid := topoShape{Grid: true, NumSizes: 2, defaults: [2]int{8, 8},
		sizes:     func(t TopoSpec) [2]int { return [2]int{t.Width, t.Height} },
		WithSizes: func(t TopoSpec, s [2]int) TopoSpec { t.Width, t.Height = s[0], s[1]; return t }}
	nodes := topoShape{NumSizes: 1, defaults: [2]int{8},
		sizes:     func(t TopoSpec) [2]int { return [2]int{t.Nodes} },
		WithSizes: func(t TopoSpec, s [2]int) TopoSpec { t.Nodes = s[0]; return t }}
	clos := topoShape{NumSizes: 2, defaults: [2]int{4, 8},
		sizes:     func(t TopoSpec) [2]int { return [2]int{t.Spines, t.Leaves} },
		WithSizes: func(t TopoSpec, s [2]int) TopoSpec { t.Spines, t.Leaves = s[0], s[1]; return t }}
	kinds := []TopoKind{
		{Name: "mesh", topoShape: grid, min: [2]int{1, 1},
			reason:   "grid %[1]dx%[2]d (a mesh needs at least %[3]dx%[4]d)",
			build:    func(t TopoSpec) topology.Topology { return topology.NewMesh(t.Width, t.Height) },
			breakers: sync.OnceValue(func() []string { return BreakerNames(cdg.StandardBreakers()) })},
		{Name: "torus", topoShape: grid, min: [2]int{2, 2},
			reason:   "grid %[1]dx%[2]d (a torus needs at least %[3]dx%[4]d)",
			build:    func(t TopoSpec) topology.Topology { return topology.NewTorus(t.Width, t.Height) },
			breakers: sync.OnceValue(DatelineBreakerNames)},
		{Name: "ring", topoShape: nodes, min: [2]int{3},
			reason: "%[1]d nodes (a ring needs at least %[3]d)",
			build:  func(t TopoSpec) topology.Topology { return topology.NewRing(t.Nodes) }},
		{Name: "fullmesh", topoShape: nodes, min: [2]int{2},
			reason: "%[1]d nodes (a full mesh needs at least %[3]d)",
			build:  func(t TopoSpec) topology.Topology { return topology.NewFullMesh(t.Nodes) }},
		{Name: "clos", topoShape: clos, min: [2]int{1, 2},
			reason: "%[1]d spines x %[2]d leaves (a folded Clos needs at least %[3]d spine and %[4]d leaves)",
			build:  func(t TopoSpec) topology.Topology { return topology.NewFoldedClos(t.Spines, t.Leaves) }},
	}
	// Either grid also comes with failed links. Arbitrary failures void the
	// grid's own turn and dateline rules, so the faulted kinds explore the
	// graph-generic set.
	for _, base := range kinds[:2] {
		base.Name, base.Faulted, base.breakers = "faulted-"+base.Name, true, nil
		kinds = append(kinds, base)
	}
	return kinds
}()

// namesOf lists the name column of a vocabulary table, in table order.
func namesOf[T any](rows []T, name func(T) string) []string {
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = name(row)
	}
	return names
}

// TopoKindNames lists the topology vocabulary in documentation order.
func TopoKindNames() []string { return namesOf(topoKinds, func(k TopoKind) string { return k.Name }) }

// TopoKindOf looks a kind up by name.
func TopoKindOf(name string) (TopoKind, bool) {
	for _, k := range topoKinds {
		if k.Name == name {
			return k, true
		}
	}
	return TopoKind{}, false
}

// MeshSpec declares a width x height mesh.
func MeshSpec(width, height int) TopoSpec {
	return TopoSpec{Kind: "mesh", Width: width, Height: height}
}

// TorusSpec declares a width x height torus.
func TorusSpec(width, height int) TopoSpec {
	return TopoSpec{Kind: "torus", Width: width, Height: height}
}

// WithDefaults returns the spec with its kind and every zero size replaced
// by the documented defaults. Unknown kinds come back unchanged.
func (t TopoSpec) WithDefaults() TopoSpec {
	if t.Kind == "" {
		t.Kind = "mesh"
	}
	k, ok := TopoKindOf(t.Kind)
	if !ok {
		return t
	}
	sizes := k.sizes(t)
	for i, size := range sizes {
		if size == 0 {
			sizes[i] = k.defaults[i]
		}
	}
	return k.WithSizes(t, sizes)
}

// Check reports why the spec, read literally (zero means zero: apply
// WithDefaults first where zero should mean the default), cannot be
// built: an unknown kind, a negative parameter, or a shape below the
// kind's minimum. A spec that passes cannot panic a constructor. The
// error carries no package prefix; boundaries add their own.
func (t TopoSpec) Check() error {
	k, ok := TopoKindOf(t.Kind)
	if !ok {
		return fmt.Errorf("unknown topology kind %q", t.Kind)
	}
	if t.Width < 0 || t.Height < 0 || t.Nodes < 0 || t.Spines < 0 || t.Leaves < 0 || t.Faults < 0 {
		return fmt.Errorf("negative topology parameter in %+v", t)
	}
	sizes := k.sizes(t)
	if sizes[0] >= k.min[0] && sizes[1] >= k.min[1] {
		return nil
	}
	reason := fmt.Sprintf(k.reason, sizes[0], sizes[1], k.min[0], k.min[1])
	if k.Grid && sizes[0]*sizes[1] == 0 {
		reason = "zero-size " + reason
	}
	return fmt.Errorf("%s: %s", t.Kind, reason)
}

// IsGrid reports whether the declared topology is an orthogonal grid, on
// which the grid-specific algorithms and workloads apply.
func (t TopoSpec) IsGrid() bool {
	k, _ := TopoKindOf(t.WithDefaults().Kind)
	return k.Grid && !k.Faulted
}

// NumNodes reports the node count of the declared topology without
// building it, so that default breaker sets (which name spanning-order
// roots) can be derived from the spec alone. Unknown kinds have none.
func (t TopoSpec) NumNodes() int {
	t = t.WithDefaults()
	k, ok := TopoKindOf(t.Kind)
	switch {
	case !ok:
		return 0
	case k.Grid:
		return t.Width * t.Height
	}
	sizes := k.sizes(t) // a ring or full mesh has its one size; a Clos a node per spine and leaf
	return sizes[0] + sizes[1]
}

// Build constructs the declared topology.
func (t TopoSpec) Build() (topology.Topology, error) {
	t = t.WithDefaults()
	if err := t.Check(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	k, _ := TopoKindOf(t.Kind)
	if k.Faulted {
		return topology.Faulted(k.build(t).(topology.Grid), t.FaultSeed, t.Faults)
	}
	return k.build(t), nil
}

// String returns a compact label such as "mesh8x8" or
// "faulted-mesh8x8-f6-s1"; it uniquely keys the topology cache, so every
// parameter that changes the built network appears in it.
func (t TopoSpec) String() string {
	t = t.WithDefaults()
	k, ok := TopoKindOf(t.Kind)
	if !ok {
		return t.Kind
	}
	sizes := k.sizes(t)
	label := t.Kind + strconv.Itoa(sizes[0])
	if k.NumSizes == 2 {
		label += "x" + strconv.Itoa(sizes[1])
	}
	if k.Faulted {
		label += fmt.Sprintf("-f%d-s%d", t.Faults, t.FaultSeed)
	}
	return label
}

// DefaultBreakerNames returns the acyclic-CDG strategies a BSOR job
// explores on t when it names none: the standard fifteen (twelve
// turn-model rules plus three ad hoc seeds) on a mesh, the twelve
// dateline rules on a torus, and the graph-generic up*/down* set (plain
// and escape-layered, several spanning roots) on every other kind. A spec
// that fails Check has none. The mesh and torus lists are derived once per
// process; each call returns its own copy.
func DefaultBreakerNames(t TopoSpec) []string {
	t = t.WithDefaults()
	if t.Check() != nil {
		return nil
	}
	if k, _ := TopoKindOf(t.Kind); k.breakers != nil {
		return slices.Clone(k.breakers())
	}
	return GraphBreakerNames(t.NumNodes())
}
