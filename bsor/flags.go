package bsor

import (
	"flag"
	"strings"

	"repro/internal/experiments"
)

// SpecFlags binds the command-line flags shared by the repository's
// tools (topology, workload, VCs, demand) onto one flag set, so
// cmd/bsor's subcommands parse specs identically instead of
// copy-pasting flag wiring. Register with RegisterFlags, call ParseSpec
// after the flag set parses.
type SpecFlags struct {
	topo     *string
	width    *int
	height   *int
	vcs      *int
	workload *string
	demand   *float64
}

// RegisterFlags registers the shared spec flags on fs and returns the
// handle to read them back. The -topo flag accepts a bare kind ("mesh",
// "torus", ...), which combines with -width/-height, or a full canonical
// label ("torus4x4", "ring8", "faulted-mesh8x8-f4-s1"), which overrides
// them.
func RegisterFlags(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		topo: fs.String("topo", "mesh",
			"topology: "+strings.Join(experiments.TopoKindNames(), " | ")+", or a label like torus4x4 / ring8"),
		width:  fs.Int("width", 8, "grid width (grid topologies)"),
		height: fs.Int("height", 8, "grid height (grid topologies)"),
		vcs:    fs.Int("vcs", 2, "virtual channels per link"),
		workload: fs.String("workload", "transpose",
			"workload: "+strings.Join(Workloads(), " | ")),
		demand: fs.Float64("demand", 0,
			"per-flow demand for synthetic workloads (MB/s, 0 = the published 25)"),
	}
}

// ParseSpec assembles the Spec the parsed flags describe. Call after the
// flag set's Parse; the returned spec is validated.
func (sf *SpecFlags) ParseSpec() (Spec, error) {
	topo, err := ParseTopology(*sf.topo)
	if err != nil {
		return Spec{}, err
	}
	// Bare Width x Height kinds honor -width/-height (faulted kinds start
	// with zero faults; use a full label like faulted-mesh8x8-f4-s1 for
	// more).
	if kind, bare := experiments.TopoKindOf(*sf.topo); bare && kind.Grid {
		topo.Width, topo.Height = *sf.width, *sf.height
	}
	spec := Spec{
		Topo:     topo,
		Workload: *sf.workload,
		VCs:      *sf.vcs,
		Demand:   *sf.demand,
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
