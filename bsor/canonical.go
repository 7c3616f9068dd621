package bsor

import "encoding/json"

// Canonical validates the spec and returns it with every default
// resolved into explicit fields: the algorithm name in canonical case
// (empty becomes BSOR-Dijkstra), VCs, the breaker exploration set of a
// BSOR variant (empty becomes the topology's DefaultBreakers, spelled
// out), and the simulation cycle counts. Two specs that execute
// identically — however sparsely their JSON spells the defaults —
// canonicalize to the same value, and the canonical form is what every
// entry point runs: on one Engine, one spec is one synthesis however it
// is spelled.
//
// Every field of a Spec changes result bytes, so every field is part of
// its identity — the diagnostic Name included, since results echo it.
func (s Spec) Canonical() (Spec, error) { return s.canonical("") }

// CanonicalKey returns the canonical serialization of the spec: the
// JSON encoding of Canonical(), whose field order is fixed by the Spec
// struct, not by how a client happened to order its request document.
// Identical specs — same effective work, any JSON field order, defaults
// spelled or omitted — yield byte-identical keys, which is what makes
// the key safe to use for caching and request deduplication (the bsord
// daemon's route-set cache and singleflight group key on it).
func (s Spec) CanonicalKey() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
