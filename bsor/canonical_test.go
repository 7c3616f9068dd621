package bsor

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// meshKeyGolden pins the canonical serialization of the simplest BSOR
// spec: defaults spelled out, fields in Spec struct order, the mesh
// breaker set enumerated. A change here is a cache-key compatibility
// break for the bsord daemon and must be deliberate.
const meshKeyGolden = `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","algorithm":"BSOR-Dijkstra","breakers":["E-first","W-first","N-first","S-first","E-last","W-last","N-last","S-last","negative-first(WS)","negative-first(WN)","negative-first(ES)","negative-first(EN)","ad-hoc-1","ad-hoc-2","ad-hoc-3"],"vcs":2}`

// TestCanonicalKeyGolden proves the property the daemon's cache relies
// on: identical specs reach the same key regardless of JSON field
// order and of whether defaults are spelled or omitted — and the key
// bytes themselves are pinned.
func TestCanonicalKeyGolden(t *testing.T) {
	documents := map[string]string{
		"field order A":     `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","vcs":2}`,
		"field order B":     `{"vcs":2,"workload":"transpose","topo":{"height":4,"width":4,"kind":"mesh"}}`,
		"defaults omitted":  `{"workload":"transpose","topo":{"kind":"mesh","width":4,"height":4}}`,
		"algorithm spelled": `{"workload":"transpose","algorithm":"bsor-dijkstra","topo":{"kind":"mesh","width":4,"height":4}}`,
	}
	for label, doc := range documents {
		var spec Spec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatalf("%s: unmarshal: %v", label, err)
		}
		key, err := spec.CanonicalKey()
		if err != nil {
			t.Fatalf("%s: CanonicalKey: %v", label, err)
		}
		if key != meshKeyGolden {
			t.Errorf("%s: key drifted:\n got  %s\n want %s", label, key, meshKeyGolden)
		}
	}
}

// TestCanonicalResolvesDefaults checks the individual resolutions:
// algorithm casing, VCs, breaker enumeration and sim cycle counts.
func TestCanonicalResolvesDefaults(t *testing.T) {
	spec := Spec{
		Topo: Ring(8), Workload: "rand-perm", Algorithm: "sp",
		Sim: &SimSpec{Rates: []float64{5}},
	}
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Algorithm != "SP" {
		t.Errorf("algorithm = %q, want canonical SP", c.Algorithm)
	}
	if c.VCs != 2 {
		t.Errorf("vcs = %d, want default 2", c.VCs)
	}
	if len(c.Breakers) != 0 {
		t.Errorf("SP spec grew breakers %v; baselines do not explore CDGs", c.Breakers)
	}
	if c.Sim.Warmup != 20000 || c.Sim.Measure != 100000 {
		t.Errorf("sim cycles = %d/%d, want published 20000/100000", c.Sim.Warmup, c.Sim.Measure)
	}
	if spec.Sim.Warmup != 0 || spec.Sim.Measure != 0 {
		t.Errorf("Canonical mutated the input spec's SimSpec (cycles = %d/%d)", spec.Sim.Warmup, spec.Sim.Measure)
	}

	// A BSOR spec on a non-mesh kind enumerates that topology's default
	// breaker set, so empty-vs-spelled breaker lists share a key.
	bare := Spec{Topo: Torus(4, 4), Workload: "shuffle"}
	spelled := Spec{Topo: Torus(4, 4), Workload: "shuffle", Breakers: DefaultBreakers(Torus(4, 4))}
	k1, err := bare.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := spelled.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("empty and spelled default breakers disagree:\n %s\n %s", k1, k2)
	}

	// Name is identity: results echo it, so it must split cache keys.
	named := Spec{Name: "a", Topo: Torus(4, 4), Workload: "shuffle"}
	k3, err := named.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("specs differing only by Name share a key; responses echoing Name would collide")
	}
}

// TestCanonicalRejectsInvalid: canonicalization is validation-first, so
// a key is only ever minted for a spec the pipeline would accept.
func TestCanonicalRejectsInvalid(t *testing.T) {
	for field, spec := range map[string]Spec{
		"workload": {Topo: Mesh(4, 4), Workload: "no-such-workload"},
		// Below NewTorus' 2x2 minimum (the height takes its default).
		"topo": {Topo: Topology{Kind: "torus", Width: 1}, Workload: "transpose"},
	} {
		_, err := spec.CanonicalKey()
		var se *SpecError
		if !errors.As(err, &se) || se.Field != field {
			t.Errorf("err = %v, want *SpecError on field %s", err, field)
		}
	}
	if err := (Spec{Topo: Torus(1, 5), Workload: "transpose"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "at least 2x2") {
		t.Errorf("Validate of a 1x5 torus = %v, want the 2x2 minimum named", err)
	}
}

// eachLeaf visits every JSON-visible leaf field reachable from the struct
// v, in declaration order, with its dotted JSON path: nested structs and
// non-nil struct pointers are descended into, everything else (scalars,
// slices) is a leaf.
func eachLeaf(v reflect.Value, prefix string, visit func(path string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		fv := v.Field(i)
		if fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				continue
			}
			fv = fv.Elem()
		}
		if fv.Kind() == reflect.Struct {
			eachLeaf(fv, prefix+name+".", visit)
			continue
		}
		visit(prefix+name, fv)
	}
}

// perturbEach returns, per leaf of base(), a fresh copy with only that
// leaf moved to a nearby value of its kind: scalars step, strings grow a
// suffix, slices lose their last element (so the base needs two).
func perturbEach[T any](t *testing.T, base func() *T) (paths []string, out []*T) {
	t.Helper()
	eachLeaf(reflect.ValueOf(base()).Elem(), "", func(path string, _ reflect.Value) {
		paths = append(paths, path)
	})
	for _, target := range paths {
		v := base()
		eachLeaf(reflect.ValueOf(v).Elem(), "", func(path string, leaf reflect.Value) {
			if path != target {
				return
			}
			switch leaf.Kind() {
			case reflect.Bool:
				leaf.SetBool(!leaf.Bool())
			case reflect.Int, reflect.Int64:
				leaf.SetInt(leaf.Int() + 1)
			case reflect.Float64:
				leaf.SetFloat(leaf.Float()*1.5 + 0.125)
			case reflect.String:
				leaf.SetString(leaf.String() + "-x")
			case reflect.Slice:
				if leaf.Len() < 2 {
					t.Fatalf("%s: the base spec needs two elements here", path)
				}
				leaf.Set(leaf.Slice(0, leaf.Len()-1))
			default:
				t.Fatalf("%s: no perturbation for kind %s; add one", path, leaf.Kind())
			}
		})
		out = append(out, v)
	}
	return paths, out
}

// rejected reports whether err is the typed validation failure; any
// other error fails the test.
func rejected(t *testing.T, path string, err error) bool {
	t.Helper()
	var se *SpecError
	if err != nil && !errors.As(err, &se) {
		t.Fatalf("%s: perturbed spec failed with %v (%T), want *SpecError", path, err, err)
	}
	return err != nil
}

// TestSpecHasNoFieldOutsideIdentity pins the invariant that lets
// Canonical be defaults + validation and nothing else: every
// JSON-visible field of Spec and SimSpec changes what is computed, so
// perturbing any one of them changes the CanonicalKey (or is rejected by
// validation). A field that only changes how fast a spec runs fails here.
func TestSpecHasNoFieldOutsideIdentity(t *testing.T) {
	mcl := func() *Spec {
		return &Spec{Name: "n", Topo: Mesh(4, 4), Workload: "transpose",
			Algorithm: "BSOR-Dijkstra", Breakers: []string{"E-first", "W-first"},
			VCs: 2, Demand: 25, Capacity: 100}
	}
	sim := func() *Spec {
		s := mcl()
		s.Sim = &SimSpec{Rates: []float64{5, 10}, Warmup: 100, Measure: 1000, Seed: 1, Variation: 0.1}
		return s
	}
	for label, base := range map[string]func() *Spec{"mcl": mcl, "sim": sim} {
		want, err := base().CanonicalKey()
		if err != nil {
			t.Fatalf("%s base: %v", label, err)
		}
		paths, specs := perturbEach(t, base)
		for i, path := range paths {
			key, err := specs[i].CanonicalKey()
			if rejected(t, path, err) {
				continue
			}
			if key == want {
				t.Errorf("%s base: perturbing %s leaves the CanonicalKey unchanged: the field is outside the spec's identity", label, path)
			}
		}
	}
}

// TestChurnSpecHasNoFieldOutsideItsResult is the same invariant for
// ChurnSpec, which has no key: every field moves the marshaled result (or
// the spec is rejected, by validation or at run time).
func TestChurnSpecHasNoFieldOutsideItsResult(t *testing.T) {
	base := func() *ChurnSpec {
		return &ChurnSpec{Name: "c", Topo: Mesh(4, 4), Workload: "transpose",
			Demand: 25, VCs: 2, Rate: 0.7,
			Warmup: 500, Measure: 3000, Seed: 1,
			Faults: 2, FaultSeed: 1, FaultStart: 800, FaultSpacing: 1000,
			RecoveryWindow: 256, Resynth: "heuristic"}
	}
	paths, specs := perturbEach(t, base)
	run, ran := []ChurnSpec{*base()}, []string{"base"}
	for i, path := range paths {
		if !rejected(t, path, specs[i].Validate()) {
			run, ran = append(run, *specs[i]), append(ran, path)
		}
	}
	results, err := RunChurn(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("base spec failed: %v", results[0].Err)
	}
	render := func(r ChurnResult) string {
		r.Spec = 0 // the result's index in this batch, not part of the spec
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			return string(b) + r.Err.Error()
		}
		return string(b)
	}
	want := render(results[0])
	for i, path := range ran[1:] {
		res := results[i+1]
		if render(res) == want {
			t.Errorf("perturbing %s leaves the churn result unchanged: the field is outside the spec's identity", path)
		}
	}
}
