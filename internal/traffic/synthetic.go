// Package traffic provides the workloads of the thesis' evaluation
// (chapter 5): the transpose, bit-complement, and shuffle synthetic
// patterns; a seeded random-permutation pattern for topologies whose node
// count rules out bit permutations; the H.264 decoder, processor
// performance modeling, and IEEE 802.11a/g transmitter application flow
// graphs; and the two-state Markov-modulated bandwidth variation model of
// §5.3.
//
// The synthetic patterns address nodes by id and run on any
// topology.Topology — grids, rings, full meshes, Clos fabrics, faulted
// grids. The bit-permutation patterns require a power-of-two node count
// and report a *NonPowerOfTwoError otherwise; RandomPermutation is the
// fallback for every other size.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// DefaultSyntheticDemand is the per-flow bandwidth (MB/s) used by the
// synthetic benchmarks; 25 MB/s reproduces the multiples-of-25 MCL values
// of the thesis' tables (e.g. XY transpose MCL 175 = 7 x 25).
const DefaultSyntheticDemand = 25.0

// NonPowerOfTwoError reports that a bit-permutation pattern was asked for
// on a topology whose node count has no integer address width. Callers
// detect it with errors.As and fall back to RandomPermutation (Transpose
// can additionally return *OddAddressWidthError, which warrants the same
// fallback).
type NonPowerOfTwoError struct {
	// Nodes is the offending node count.
	Nodes int
}

func (e *NonPowerOfTwoError) Error() string {
	return fmt.Sprintf("traffic: %d nodes is not a power of two; bit-permutation patterns need an integer address width (use the rand-perm workload)", e.Nodes)
}

// TooFewNodesError reports a topology with fewer than two nodes: no
// traffic pattern can produce a flow on it (a node does not send to
// itself). Callers detect it with errors.As.
type TooFewNodesError struct {
	// Nodes is the offending node count.
	Nodes int
}

func (e *TooFewNodesError) Error() string {
	return fmt.Sprintf("traffic: %d nodes admit no flows; traffic patterns need at least two", e.Nodes)
}

// OddAddressWidthError reports that Transpose was asked for on a
// power-of-two topology whose address width is odd, so the two address
// halves cannot swap. Like *NonPowerOfTwoError, it marks a topology size
// the pattern cannot express; RandomPermutation is the fallback.
type OddAddressWidthError struct {
	// Nodes is the node count; Bits its (odd) address width.
	Nodes, Bits int
}

func (e *OddAddressWidthError) Error() string {
	return fmt.Sprintf("traffic: transpose requires an even address width, have %d bits for %d nodes (use the rand-perm workload)", e.Bits, e.Nodes)
}

// addressBits returns b = log2(N) for the bit-permutation patterns, which
// require a power-of-two node count.
func addressBits(t topology.Topology) (int, error) {
	n := t.NumNodes()
	if n < 2 || n&(n-1) != 0 {
		return 0, &NonPowerOfTwoError{Nodes: n}
	}
	return bits.TrailingZeros(uint(n)), nil
}

func bitPattern(t topology.Topology, name string, demand float64,
	dst func(s, b int) int) ([]flowgraph.Flow, error) {

	b, err := addressBits(t)
	if err != nil {
		return nil, err
	}
	var flows []flowgraph.Flow
	for s := 0; s < t.NumNodes(); s++ {
		d := dst(s, b)
		if d == s {
			continue // a node does not send to itself
		}
		flows = append(flows, flowgraph.Flow{
			ID:     len(flows),
			Name:   fmt.Sprintf("%s(%d->%d)", name, s, d),
			Src:    topology.NodeID(s),
			Dst:    topology.NodeID(d),
			Demand: demand,
		})
	}
	return flows, nil
}

// Transpose is the matrix-transpose / corner-turn pattern (§5.1.2):
// d_i = s_{(i + b/2) mod b}, i.e. the two halves of the node address swap,
// so grid node (x, y) sends to (y, x). Requires an even address width.
func Transpose(t topology.Topology, demand float64) ([]flowgraph.Flow, error) {
	b, err := addressBits(t)
	if err != nil {
		return nil, err
	}
	if b%2 != 0 {
		return nil, &OddAddressWidthError{Nodes: t.NumNodes(), Bits: b}
	}
	return bitPattern(t, "transpose", demand, func(s, b int) int {
		half := b / 2
		lo := s & (1<<half - 1)
		hi := s >> half
		return lo<<half | hi
	})
}

// BitComplement is the vector-reversal pattern (§5.1.1): d_i = NOT s_i,
// so grid node (x, y) sends to (W-1-x, H-1-y).
func BitComplement(t topology.Topology, demand float64) ([]flowgraph.Flow, error) {
	return bitPattern(t, "bitcomp", demand, func(s, b int) int {
		return ^s & (1<<b - 1)
	})
}

// Shuffle is the perfect-shuffle pattern of sorting and FFT kernels
// (§5.1.3): the address rotates left by one bit, d_i = s_{(i-1) mod b}.
func Shuffle(t topology.Topology, demand float64) ([]flowgraph.Flow, error) {
	return bitPattern(t, "shuffle", demand, func(s, b int) int {
		return (s<<1 | s>>(b-1)) & (1<<b - 1)
	})
}

// RandomPermutation is the seeded fixed-permutation pattern: every node
// sends to a distinct destination drawn from a seeded Fisher–Yates
// shuffle, with fixed points repaired deterministically so no node sends
// to itself. It is defined for any topology with at least two nodes and is
// the synthetic workload of choice where the bit patterns are (topologies
// with non-power-of-two node counts, e.g. Clos fabrics) or are not
// meaningful (no grid address structure). The same (topology size, seed)
// pair always yields the same flow set. Topologies with fewer than two
// nodes yield a *TooFewNodesError.
func RandomPermutation(t topology.Topology, demand float64, seed int64) ([]flowgraph.Flow, error) {
	n := t.NumNodes()
	if n < 2 {
		return nil, &TooFewNodesError{Nodes: n}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	// Repair fixed points: swap with the successor position. The swap
	// cannot create a new fixed point at i (the incoming value equals i's
	// old value only if both were fixed, and then the swap clears both),
	// and positions before i are already clean.
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	flows := make([]flowgraph.Flow, 0, n)
	for s := 0; s < n; s++ {
		flows = append(flows, flowgraph.Flow{
			ID:     len(flows),
			Name:   fmt.Sprintf("randperm(%d->%d)", s, perm[s]),
			Src:    topology.NodeID(s),
			Dst:    topology.NodeID(perm[s]),
			Demand: demand,
		})
	}
	return flows, nil
}

// RandomFlows is the seeded random demand generator behind the
// certificate checker's randomized verification harness: nFlows flows
// with uniformly chosen distinct endpoints and demands drawn uniformly
// from (0, maxDemand]. Unlike the fixed synthetic patterns it exercises
// unbalanced, repeated-pair demand matrices. Deterministic in
// (topology size, nFlows, maxDemand, seed). Topologies with fewer than
// two nodes yield a *TooFewNodesError.
func RandomFlows(t topology.Topology, nFlows int, maxDemand float64, seed int64) ([]flowgraph.Flow, error) {
	n := t.NumNodes()
	if n < 2 {
		return nil, &TooFewNodesError{Nodes: n}
	}
	if nFlows < 0 {
		nFlows = 0
	}
	if maxDemand <= 0 {
		maxDemand = DefaultSyntheticDemand
	}
	rng := rand.New(rand.NewSource(seed))
	flows := make([]flowgraph.Flow, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, flowgraph.Flow{
			ID:     i,
			Name:   fmt.Sprintf("randflow%d(%d->%d)", i, src, dst),
			Src:    topology.NodeID(src),
			Dst:    topology.NodeID(dst),
			Demand: maxDemand * (1 - rng.Float64()),
		})
	}
	return flows, nil
}
