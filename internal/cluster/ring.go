// Package cluster is the horizontal scale-out layer (DESIGN.md §14): a
// rendezvous-hash ring that assigns every canonical memo key to exactly one
// cxlserve replica, and a coordinator that fans scenario cells out across
// the ring over the existing HTTP API and merges the results byte-identical
// to local serial execution.
//
// The invariant the whole layer rides on is the one PR 3/5 established:
// every cell and dataset is a pure function of its canonical memo key
// (spec + options fingerprint, never the worker count). That makes the key
// the unit of distribution — a replica that owns a key range keeps its
// bounded cache dedicated to that range instead of holding one more copy of
// the fleet-wide hot set, and any replica can recompute any key with
// byte-identical results, so routing is a performance decision, never a
// correctness one.
//
// Rendezvous (highest-random-weight) hashing was chosen over a virtual-node
// consistent-hash circle because the peer sets here are small (single-digit
// replica counts): O(peers) per lookup is free at this scale, the balance
// is as good as the hash, and the minimal-reshuffle property is exact —
// removing a peer only moves the keys that peer owned, adding one only
// steals the keys it now wins (both pinned by tests).
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Ring is an immutable rendezvous-hash ring over replica addresses. The
// zero value is not usable — build one with NewRing. Methods are safe for
// concurrent use (the ring never mutates after construction).
type Ring struct {
	self  string
	peers []string
}

// NewRing builds a ring over the given peer addresses. self is this
// replica's own advertised address and is added to the peer set if absent;
// a client-side ring (a coordinator that only routes, never owns) may pass
// an empty self with a non-empty peer list. Addresses are trimmed and
// deduplicated; at least one must remain.
func NewRing(self string, peers []string) (*Ring, error) {
	seen := make(map[string]bool, len(peers)+1)
	var all []string
	add := func(p string) {
		p = strings.TrimSpace(p)
		if p == "" || seen[p] {
			return
		}
		seen[p] = true
		all = append(all, p)
	}
	self = strings.TrimSpace(self)
	add(self)
	for _, p := range peers {
		add(p)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sort.Strings(all)
	return &Ring{self: self, peers: all}, nil
}

// Self returns this replica's advertised address, empty for a client-side
// ring.
func (r *Ring) Self() string { return r.self }

// Peers returns the full member list in sorted order, as a copy.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Owner returns the peer that owns the given canonical key: the rendezvous
// winner — the peer maximizing hash(peer, key), ties broken toward the
// lexicographically smaller address so every member computes the same
// answer with no coordination.
func (r *Ring) Owner(key string) string {
	best := r.peers[0]
	bestScore := rendezvousScore(best, key)
	for _, p := range r.peers[1:] {
		if s := rendezvousScore(p, key); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// Owns reports whether this replica owns the key. A single-member ring owns
// everything; a client-side ring (empty self) owns nothing.
func (r *Ring) Owns(key string) bool {
	if len(r.peers) == 1 {
		return r.peers[0] == r.self
	}
	return r.self != "" && r.Owner(key) == r.self
}

// NormalizeAddr canonicalizes one replica address for ring membership:
// whitespace is trimmed, a missing scheme defaults to http, and a trailing
// slash is dropped — so "host:8375", "http://host:8375" and
// "http://host:8375/" name the same member. Rendezvous scores hash the
// address text, so members must agree on the canonical spelling.
func NormalizeAddr(addr string) (string, error) {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return "", fmt.Errorf("cluster: empty replica address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/"), nil
}

// ParsePeerList parses a comma-separated replica list — the -peers and
// -remote flag syntax — into normalized addresses; empty items are skipped.
func ParsePeerList(s string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if strings.TrimSpace(item) == "" {
			continue
		}
		n, err := NormalizeAddr(item)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: peer list %q names no replicas", s)
	}
	return out, nil
}

// rendezvousScore hashes one (peer, key) pair: 64-bit FNV-1a over
// peer + NUL + key (the NUL separator keeps ("ab","c") and ("a","bc")
// distinct), finished with a 64-bit avalanche mixer. The mixer is load-
// bearing: raw FNV-1a barely diffuses its trailing bytes, so the canonical
// keys here — long shared prefixes, short differing tails — would produce
// correlated scores and one peer would win entire key families.
func rendezvousScore(peer, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(peer); i++ {
		h ^= uint64(peer[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: FNV-1a of byte 0 is a bare multiply
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
