// Package swarm scales the digibox message plane out across a pool of
// MQTT broker shards, keeps cross-shard semantics identical to a
// single broker via an inter-broker bridge, and drives the result with
// a load generator pacing a compiled device profile that reports
// machine-readable benchmarks. It is the substrate behind `dbox swarm` and
// `Testbed.RunSwarm` — the repo's answer to the paper's "a few devices
// on a laptop to thousands in a cluster" scaling story.
package swarm

import (
	"fmt"
	"sort"
	"sync"
)

// vnodesPerShard is the number of virtual nodes each shard contributes
// to the hash ring. 256 keeps the per-shard share of key space within
// ~10% of uniform while the ring stays small enough (a few thousand
// points even at high shard counts) to rebuild instantly and search
// with one binary search per publish.
const vnodesPerShard = 256

// ring is a consistent-hash ring mapping string keys (topics, client
// ids) to shard indexes, with health-aware membership: a shard marked
// down keeps its points on the ring but is skipped during the
// successor walk, so its keys re-anchor deterministically onto the
// next alive shard clockwise while every key whose home is alive keeps
// its placement (no reshuffle of healthy placements). Placement only:
// correctness of cross-shard delivery is the bridge's job, so a key
// landing on "the wrong" shard costs a forward, never a lost message.
type ring struct {
	points []ringPoint // sorted by hash
	down   []bool      // down[shard] marks a dead member
	alive  int         // shards not marked down
}

type ringPoint struct {
	hash  uint64
	shard int
}

func newRing(shards int) *ring {
	return &ring{points: ringPoints(shards), down: make([]bool, shards), alive: shards}
}

// ringCache holds one sorted point slice per shard count: the points
// are a pure function of it, so every pool of that size shares one
// immutable slice and a new pool sorts nothing.
var ringCache sync.Map // int -> []ringPoint

func ringPoints(shards int) []ringPoint {
	if v, ok := ringCache.Load(shards); ok {
		return v.([]ringPoint)
	}
	points := make([]ringPoint, 0, shards*vnodesPerShard)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			points = append(points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	v, _ := ringCache.LoadOrStore(shards, points)
	return v.([]ringPoint)
}

// markDown removes shard s from the alive set. Keys homed on s map to
// their ring successor among survivors until markUp.
func (r *ring) markDown(s int) {
	if s >= 0 && s < len(r.down) && !r.down[s] {
		r.down[s] = true
		r.alive--
	}
}

// markUp restores shard s to the alive set; its original keys re-anchor
// back to it (shardFor is a pure function of the alive set).
func (r *ring) markUp(s int) {
	if s >= 0 && s < len(r.down) && r.down[s] {
		r.down[s] = false
		r.alive++
	}
}

// isDown reports shard s's membership state.
func (r *ring) isDown(s int) bool {
	return s >= 0 && s < len(r.down) && r.down[s]
}

// shardFor maps a key to the first ring point at or after its hash
// whose shard is alive, wrapping at the top of the ring. With every
// shard down it degrades to the raw successor so callers always get a
// valid index.
func (r *ring) shardFor(key string) int {
	return r.shardAt(hashKey(key))
}

// shardAt is shardFor for a key whose hashKey is h.
func (r *ring) shardAt(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	if r.alive > 0 && r.alive < len(r.down) {
		for k := 0; k < len(r.points); k++ {
			p := r.points[(i+k)%len(r.points)]
			if !r.down[p.shard] {
				return p.shard
			}
		}
	}
	return r.points[i].shard
}

// hashKey is 64-bit FNV-1a over the key's bytes (hash/fnv's New64a),
// inline so a publish allocates nothing for it.
func hashKey(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
