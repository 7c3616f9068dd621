package bsor

import (
	"errors"
	"strings"
	"testing"
)

// topologyErrorCases are labels ParseTopology must reject, each with a
// substring its *SpecError must carry ("" marks a label it accepts).
var topologyErrorCases = []struct {
	label  string
	reason string
}{
	// Malformed labels.
	{"", "unparseable"},
	{"hypercube4", "unparseable"},
	{"mesh8", "unparseable"},
	{"mesh8x", "unparseable"},
	{"meshAxB", "unparseable"},
	{"torus-4x4", "unparseable"},
	{"ring", ""}, // bare kind: valid, defaults apply
	{"ringx8", "unparseable"},
	{"fullmesh", ""}, // bare kind
	{"faulted-mesh8x8", "unparseable"},
	{"faulted-mesh8x8-f4", "unparseable"},
	{"faulted-mesh8x8-f4-sX", "unparseable"},
	{"clos4", "unparseable"},
	// Numerals no int holds.
	{"mesh99999999999999999999x8", "unparseable"},
	{"faulted-mesh8x8-f1-s99999999999999999999", "unparseable"},
	// Zero-size grids.
	{"mesh0x8", "zero-size grid"},
	{"mesh8x0", "zero-size grid"},
	{"torus0x0", "zero-size grid"},
	{"faulted-mesh0x4-f1-s1", "zero-size grid"},
	{"faulted-torus4x0-f1-s1", "zero-size grid"},
	// A torus closes each dimension into a ring of at least two.
	{"torus1x5", "at least 2x2"},
	{"torus5x1", "at least 2x2"},
	{"faulted-torus1x4-f0-s1", "at least 2x2"},
	// Undersized node counts.
	{"ring0", "at least 3"},
	{"ring2", "at least 3"},
	{"fullmesh0", "at least 2"},
	{"fullmesh1", "at least 2"},
	// Bad Clos parameters.
	{"clos0x4", "at least 1 spine"},
	{"clos3x0", "at least 1 spine"},
	{"clos3x1", "at least 1 spine"},
}

func TestParseTopologyErrors(t *testing.T) {
	for _, tc := range topologyErrorCases {
		t.Run(tc.label, func(t *testing.T) {
			topo, err := ParseTopology(tc.label)
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("ParseTopology(%q) = %v, want success", tc.label, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseTopology(%q) accepted, parsed %v", tc.label, topo)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseTopology(%q) error is %T, want *SpecError", tc.label, err)
			}
			if se.Field != "topo" {
				t.Fatalf("SpecError.Field = %q, want %q", se.Field, "topo")
			}
			if !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("SpecError.Reason = %q, want substring %q", se.Reason, tc.reason)
			}
		})
	}
}

// validTopologyLabels are canonical labels ParseTopology must accept and
// String must spell back unchanged.
var validTopologyLabels = []string{
	"mesh1x1", "mesh8x8", "torus2x2", "torus4x4", "ring3", "ring16",
	"fullmesh2", "clos1x2", "clos4x8", "faulted-mesh8x8-f4-s1",
}

func TestParseTopologyValid(t *testing.T) {
	for _, label := range validTopologyLabels {
		topo, err := ParseTopology(label)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", label, err)
		}
		if got := topo.String(); got != label {
			t.Fatalf("ParseTopology(%q).String() = %q, not a round trip", label, got)
		}
	}
}

// FuzzParseTopology: ParseTopology never panics, rejects only with a
// *SpecError on the topo field, and every label it accepts has a String()
// that is a fixed point: it parses back, and spells itself again.
func FuzzParseTopology(f *testing.F) {
	for _, tc := range topologyErrorCases {
		f.Add(tc.label)
	}
	for _, label := range validTopologyLabels {
		f.Add(label)
	}
	f.Fuzz(func(t *testing.T, label string) {
		topo, err := ParseTopology(label)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) || se.Field != "topo" {
				t.Fatalf("ParseTopology(%q) error %v (%T), want a *SpecError on topo", label, err, err)
			}
			return
		}
		canon := topo.String()
		back, err := ParseTopology(canon)
		if err != nil {
			t.Fatalf("ParseTopology(%q) accepted, but its String %q does not parse: %v", label, canon, err)
		}
		if again := back.String(); again != canon {
			t.Fatalf("ParseTopology(%q).String() = %q re-parses to %q", label, canon, again)
		}
	})
}
