// Package cluster turns independent ctrpredd nodes into one service: a
// coordinator that splits experiment grids into per-benchmark cells,
// routes every content-addressed job to the worker that owns its key on
// a consistent-hash ring (so repeats land where the cache is already
// warm), fails work over when a worker dies or saturates, and
// reassembles results that are byte-identical to a single-node run.
//
// The coordinator serves the same HTTP front a single node does
// (internal/server): routing, validation, the result cache, admission,
// drain and response shaping all live there. The coordinator is the
// front's cluster executor — it decides only where an admitted job runs.
//
// The pieces:
//
//   - Ring: a consistent-hash ring over worker URLs (ring.go)
//   - Registry: worker membership, health and circuit breaker (registry.go)
//   - Client: the coordinator's HTTP client for worker nodes (client.go)
//   - hedgedPost: speculative duplicate cell dispatch (hedge.go)
//   - Journal: the durable record of finished sweep cells (journal.go)
//   - Coordinator: the executor — ring routing, cell dispatch and merge,
//     the one failover loop, degraded mode (coordinator.go)
//
// Nothing here touches simulation math. Every simulation is fully
// determined by its seeded configuration, so a cell computes the same
// bytes on any node; the cluster only decides where work runs and how
// the pieces reassemble.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ctrpred/internal/sha256"
)

// Ring is a consistent-hash ring mapping content-address keys to node
// names. Each node occupies vnodes points on the ring so load spreads
// evenly even with two or three nodes; a key's home is the first point
// clockwise from the key's own hash. Adding or removing one node moves
// only the keys that hashed to its points — everyone else's cache stays
// warm. Not safe for concurrent use; Registry serializes access.
type Ring struct {
	nodes  map[string]bool
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// vnodes balances placement smoothness against lookup cost: 64 points
// per node keeps the largest/smallest arc ratio small for the 2-8 node
// clusters this serves, and lookups stay a binary search over a few
// hundred points.
const vnodes = 64

// NewRing creates an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: make(map[string]bool)}
}

// ringHash maps a string to a ring position: the first 8 bytes of its
// SHA-256, big-endian. The simulator's own sha256 keeps the package
// stdlib-free and the placement identical on every architecture.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node's vnodes points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: ringHash(fmt.Sprintf("%s#%d", node, i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node's points. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports how many nodes are on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Home returns the node owning key: the first ring point clockwise from
// the key's hash. False when the ring is empty.
func (r *Ring) Home(key string) (string, bool) {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return "", false
	}
	return seq[0], true
}

// Sequence returns up to n distinct nodes in clockwise order starting
// at key's home — the failover order: if the home is down, the next
// distinct node on the ring takes over, and (by the same walk) would be
// the home of a re-hashed remainder.
func (r *Ring) Sequence(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
