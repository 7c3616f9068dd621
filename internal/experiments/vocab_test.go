package experiments

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/topology"
)

// TestVocabulariesAgree holds each vocabulary table to what it feeds: the
// kinds' size minimums to the topology constructors, the algorithms'
// flags to what their constructors return, the default breaker names to
// the breaker registry, the workload and repair-solver names to their
// resolvers.
func TestVocabulariesAgree(t *testing.T) {
	for _, k := range topoKinds {
		base := k.WithSizes(TopoSpec{Kind: k.Name}, [2]int{4, 4})
		for i := 0; i < k.NumSizes; i++ {
			for _, v := range []int{-1, 0, 1, 2, 3} {
				sizes := [2]int{4, 4}
				sizes[i] = v
				spec := k.WithSizes(base, sizes)
				// Read literally, Check passes exactly the sizes the
				// constructor itself accepts.
				constructs := func() (ok bool) {
					defer func() { ok = recover() == nil }()
					k.build(spec)
					return
				}()
				if checks := spec.Check() == nil; checks != constructs {
					t.Errorf("%+v: Check passes = %v, constructor accepts = %v", spec, checks, constructs)
				}
				// Build reads zero as the default and must report, never
				// panic.
				_, err := spec.Build()
				if builds, want := err == nil, spec.WithDefaults().Check() == nil; builds != want {
					t.Errorf("%+v: Build err = %v, Check after defaults passes = %v", spec, err, want)
				}
			}
		}

		names := DefaultBreakerNames(base)
		if len(names) == 0 {
			t.Errorf("%s: no default breakers", base)
		}
		var want []string
		for _, name := range names {
			b, err := BreakerByName(name)
			if err != nil {
				t.Errorf("%s: default breaker %q: %v", base, name, err)
				continue
			}
			want = append(want, b.Name())
		}
		resolved, err := ResolveBreakers(Job{Topo: base})
		if err != nil || !reflect.DeepEqual(BreakerNames(resolved), want) {
			t.Errorf("%s: ResolveBreakers on an empty list = %v, %v; want the defaults %v",
				base, BreakerNames(resolved), err, want)
		}
	}
	if names := DefaultBreakerNames(TopoSpec{Kind: "ring", Nodes: 2}); names != nil {
		t.Errorf("an unbuildable ring has default breakers %v", names)
	}

	r := &Runner{}
	for _, name := range AlgorithmNames() {
		alg, err := r.ResolveAlgorithm(Job{Topo: MeshSpec(4, 4), Algorithm: name, VCs: 2})
		if err != nil {
			t.Errorf("algorithm %s: %v", name, err)
			continue
		}
		if _, explores := alg.(core.BSOR); explores != IsBSOR(name) {
			t.Errorf("algorithm %s: IsBSOR = %v, resolves to %T", name, IsBSOR(name), alg)
		}
	}
	if IsBSOR("bsor-milp") || IsBSOR("") {
		t.Error("IsBSOR accepts a name that is not canonical")
	}

	mesh := topology.NewMesh(8, 8)
	builtins := BuiltinWorkloadNames()
	for _, name := range builtins {
		if flows, err := WorkloadFlows(mesh, name, 0); err != nil || len(flows) == 0 {
			t.Errorf("workload %s on an 8x8 mesh: %d flows, %v", name, len(flows), err)
		}
	}
	thesis, synthetic := WorkloadNames(), SyntheticWorkloadNames()
	if len(thesis) != 6 || !reflect.DeepEqual(builtins[:6], thesis) || !reflect.DeepEqual(thesis[:3], synthetic) {
		t.Errorf("workload lists out of step: built-in %v, thesis %v, synthetic %v", builtins, thesis, synthetic)
	}

	if names := ChurnResynthNames(); !slices.Contains(names, (ChurnSpec{}).withDefaults().Resynth) {
		t.Errorf("the default resynth is not one of %v", names)
	}
}

// TestDefaultBreakerNamesCached holds the mesh and torus name lists,
// derived once per process, to Name() of each breaker they stand for, in
// order. Each call hands out its own copy (a Spec stores the slice), and
// that copy is the call's one allocation.
func TestDefaultBreakerNamesCached(t *testing.T) {
	var dateline []cdg.Breaker
	for _, rule := range cdg.TwelveTurnRules() {
		dateline = append(dateline, cdg.DatelineBreaker{Rule: rule})
	}
	for _, tc := range []struct {
		topo  TopoSpec
		built []cdg.Breaker
	}{
		{MeshSpec(8, 8), cdg.StandardBreakers()},
		{TorusSpec(8, 8), dateline},
	} {
		var want []string
		for _, b := range tc.built {
			want = append(want, b.Name())
		}
		got := DefaultBreakerNames(tc.topo)
		if !slices.Equal(got, want) {
			t.Errorf("%s: default breakers %v, want the built breakers' names %v", tc.topo, got, want)
		}
		got[0] = "overwritten"
		if again := DefaultBreakerNames(tc.topo); again[0] != want[0] {
			t.Errorf("%s: a caller's write reached the shared names: %v", tc.topo, again)
		}
		if allocs := testing.AllocsPerRun(10, func() { DefaultBreakerNames(tc.topo) }); allocs > 1 {
			t.Errorf("%s: DefaultBreakerNames makes %.0f allocations, want 1", tc.topo, allocs)
		}
	}
}
