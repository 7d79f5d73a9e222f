// Package cluster implements the compile-path routing layer for a fleet
// of rstid peers: a consistent-hash ring over source digests decides
// which peer owns each program's compilation, and a router forwards
// artifact requests to the owner so the cluster compiles each program
// once, not once per node.
//
// A cluster wants compilation to behave like a content-addressed shared
// service — any peer can serve any program, but exactly one peer runs
// the frontend, and everyone else adopts the resulting artifact, the
// lowered program (see internal/compilecache's artifact format). Each
// peer instruments the (mechanism, optimizer) flavours it serves on
// first use.
//
// Ownership must be stable under membership churn, which is what the
// consistent-hash ring provides: each peer projects Replicas virtual
// nodes onto a 64-bit hash circle, and a source digest is owned by the
// first virtual node clockwise from it. Adding or removing one peer
// remaps only ~1/N of the key space; every other source keeps its owner
// and therefore its warm artifact.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per peer. 128 points per
// peer keeps the max/min ownership imbalance within ~2x for fleets up to
// a few dozen peers while the ring stays small enough to rebuild on
// every membership change (a rebuild is a sort of peers*replicas points).
const DefaultReplicas = 128

type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a set of peer names.
// Mutation is by replacement: the router rebuilds the ring whenever
// health changes membership, so readers never need a lock.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring with replicas virtual nodes per member
// (DefaultReplicas if replicas <= 0). Duplicate members collapse; order
// is irrelevant — two rings over the same member set assign every key
// identically, which is what lets peers with independently-constructed
// rings agree on owners.
func NewRing(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with sha256 points) break by name so
		// every ring over the same membership still agrees.
		return r.points[i].member < r.points[j].member
	})
	sort.Strings(r.members)
	return r
}

// pointHash places virtual node i of member m on the circle. The
// position is a sha256 of the member name and replica index, so points
// are uniform regardless of how peer URLs are shaped.
func pointHash(m string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", m, i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// KeyHash maps a source digest onto the circle. Sources are already
// content-addressed by sha256 (the compile cache's key), so the first
// eight bytes are a uniform 64-bit point.
func KeyHash(sum [32]byte) uint64 {
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member owning the given source digest: the first
// virtual node clockwise from the key's position, wrapping at the top of
// the circle. An empty ring owns nothing and returns "".
func (r *Ring) Owner(sum [32]byte) string {
	if len(r.points) == 0 {
		return ""
	}
	h := KeyHash(sum)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// OwnerOfSource is Owner over the raw source text, hashing it the same
// way the compile cache keys it.
func (r *Ring) OwnerOfSource(src string) string {
	return r.Owner(sha256.Sum256([]byte(src)))
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size reports the number of members.
func (r *Ring) Size() int { return len(r.members) }
