package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/bsor"
)

// Seeded input generation for the daemon workloads, kept apart from the
// program: the seed decides which variant of each table slot is sent, in
// which order, and how each request body is spelled — and nothing else.
// The servers receive only the generated request bodies. The same seed
// gives a byte-identical request list.
//
// The table itself is fixed, and every variant of a slot costs the same
// to serve, so runs under different seeds do different but equally
// expensive work and their timings compare.

// slot is one row of the validity table: a topology, workload and
// algorithm that synthesise, certify and simulate without error.
type slot struct {
	topo      bsor.Topology
	workload  string
	algorithm string
}

func (s slot) bsor() bool { return strings.HasPrefix(s.algorithm, "BSOR-") }

// demandVariants are the per-flow demands (MB/s) a slot can be sent
// with. Demand scales every load alike, so the variants of a slot reach
// the same routes at the same cost, but they are distinct specs with
// distinct cache keys and bodies.
var demandVariants = []float64{20, 25, 40}

// specTable is the validity table: mesh 4x4, 6x6, 8x8 and 16x16, torus
// 8x8, ring 16, folded Clos 8x32 and faulted 8x8 meshes with 2 to 6
// failed links; the bit-permutation patterns where the node count
// allows, rand-perm everywhere, the profiled applications on mesh 8x8;
// BSOR-Dijkstra and BSOR-Heuristic everywhere, XY on grids and SP off
// them. 16x16 takes baselines only: one BSOR spec there costs as much as
// forty others and would make the closed loop's tail depend on where the
// seed's order puts it. The smoke scale keeps two cheap slots.
func specTable(short bool) []slot {
	if short {
		return []slot{
			{bsor.Mesh(4, 4), "transpose", "BSOR-Dijkstra"},
			{bsor.Ring(16), "rand-perm", "SP"},
		}
	}
	patterns := []string{"transpose", "bit-complement", "shuffle", "rand-perm"}
	var t []slot
	cross := func(topo bsor.Topology, workloads, algorithms []string) {
		for _, w := range workloads {
			for _, a := range algorithms {
				t = append(t, slot{topo, w, a})
			}
		}
	}
	grid := []string{"BSOR-Dijkstra", "BSOR-Heuristic", "XY"}
	graph := []string{"BSOR-Dijkstra", "BSOR-Heuristic", "SP"}
	cross(bsor.Mesh(4, 4), patterns, grid)
	cross(bsor.Mesh(6, 6), []string{"rand-perm"}, grid)
	cross(bsor.Mesh(8, 8), append(patterns, "h264", "perf-modeling", "transmitter"), grid)
	cross(bsor.Torus(8, 8), patterns, grid)
	cross(bsor.Ring(16), patterns, graph)
	cross(bsor.FoldedClos(8, 32), []string{"rand-perm"}, graph)
	for faults := 2; faults <= 6; faults++ {
		cross(bsor.FaultedMesh(8, 8, faults, int64(faults)),
			[]string{"transpose", "shuffle", "rand-perm"}, []string{"BSOR-Dijkstra", "SP"})
	}
	t = append(t,
		slot{bsor.Mesh(16, 16), "transpose", "XY"},
		slot{bsor.Mesh(16, 16), "shuffle", "XY"},
		slot{bsor.Mesh(16, 16), "rand-perm", "SP"})
	return t
}

// hotSlot picks the hot set: one slot of every three, a third of the
// table spread over all topologies, rotating through the group so that
// the algorithms (which cycle with period three) all appear.
func hotSlot(i int) bool { return i%3 == (i/3)%3 }

func everySlot(int) bool { return true }

// endpoints are the daemon's compute endpoints in the order one spec's
// requests are sent.
var endpoints = []string{"synthesize", "explore", "verify", "sim"}

// daemonSpec is one drawn spec: a slot in one variant.
type daemonSpec struct {
	slot    int
	variant int
	bsor    bool
	spec    bsor.Spec // without the sim block
}

// key is the golden key stem of the spec.
func (d daemonSpec) key() string { return fmt.Sprintf("s%02d.v%d", d.slot, d.variant) }

// endpointSpec is the spec as endpoint ep is sent it.
func (d daemonSpec) endpointSpec(ep string, short bool) bsor.Spec {
	s := d.spec
	if ep == "sim" {
		s.Sim = &bsor.SimSpec{Rates: []float64{10, 30}, Warmup: 1000, Measure: 5000}
		if short {
			s.Sim = &bsor.SimSpec{Rates: []float64{10}, Warmup: 100, Measure: 400}
		}
	}
	return s
}

// endpointsOf lists the endpoints a spec is sent to: /v1/explore only
// takes BSOR specs.
func (d daemonSpec) endpointsOf() []string {
	if d.bsor {
		return endpoints
	}
	return []string{"synthesize", "verify", "sim"}
}

// drawSpecs draws one variant per slot of the table and a sending order.
// variant >= 0 fixes the variant of every slot instead (golden
// recording covers each in turn). Only the slots keep accepts are drawn.
func drawSpecs(rng *rand.Rand, table []slot, keep func(int) bool, variant int) []daemonSpec {
	var specs []daemonSpec
	for i, sl := range table {
		v := rng.Intn(len(demandVariants))
		if variant >= 0 {
			v = variant
		}
		if !keep(i) {
			continue
		}
		specs = append(specs, daemonSpec{slot: i, variant: v, bsor: sl.bsor(),
			spec: bsor.Spec{Topo: sl.topo, Workload: sl.workload, Algorithm: sl.algorithm,
				Demand: demandVariants[v]}})
	}
	rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	return specs
}

// request is one generated HTTP request.
type request struct {
	spec     int // index into the drawn specs
	endpoint string
	key      string // golden key: "<spec key>/<endpoint>"
	doc      bsor.Spec
	body     []byte
}

// spellings is the number of ways spell can write a spec.
const spellings = 3

// spell renders a spec as a request body in one of three ways that all
// canonicalise to the same key: 0 — fields in struct order with defaults
// omitted; 1 — fields shuffled, with stray whitespace; 2 — every default
// spelled out (the canonical form itself).
func spell(rng *rand.Rand, s bsor.Spec, way int) ([]byte, error) {
	switch way {
	case 0:
		return json.Marshal(s)
	case 2:
		c, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		return json.Marshal(c)
	}
	plain, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(plain, &doc); err != nil {
		return nil, err
	}
	return shuffledObject(rng, doc), nil
}

// shuffledObject writes a JSON object with its members in random order
// and random whitespace between tokens; nested objects are shuffled too.
func shuffledObject(rng *rand.Rand, doc map[string]json.RawMessage) []byte {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys) // map order is random; the rng alone decides
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	gap := func() string { return strings.Repeat(" ", rng.Intn(3)) + strings.Repeat("\n", rng.Intn(2)) }
	var b bytes.Buffer
	b.WriteString("{" + gap())
	for i, k := range keys {
		if i > 0 {
			b.WriteString("," + gap())
		}
		name, _ := json.Marshal(k)
		b.Write(name)
		b.WriteString(gap() + ":" + gap())
		var nested map[string]json.RawMessage
		if json.Unmarshal(doc[k], &nested) == nil && nested != nil {
			b.Write(shuffledObject(rng, nested))
		} else {
			b.Write(doc[k])
		}
	}
	b.WriteString(gap() + "}")
	return b.Bytes()
}

// requestsOf generates the requests of one spec, one per endpoint it is
// sent to, each body in a spelling the rng picks.
func requestsOf(rng *rand.Rand, specs []daemonSpec, i int, short bool) ([]request, error) {
	var out []request
	for _, ep := range specs[i].endpointsOf() {
		doc := specs[i].endpointSpec(ep, short)
		body, err := spell(rng, doc, rng.Intn(spellings))
		if err != nil {
			return nil, err
		}
		out = append(out, request{spec: i, endpoint: ep, key: specs[i].key() + "/" + ep, doc: doc, body: body})
	}
	return out, nil
}
