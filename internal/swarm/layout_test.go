package swarm

import (
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// TestPerWriterSlotsOwnCacheLines pins the layout the publish lanes
// rest on: a generator worker's fire count, a lane's bridge forwards
// and session deliveries (paddedCount) and a lane's placement-lock
// stripe each fill whole 64-byte cache lines, and a slice of them
// starts on a line boundary, so no field added later can put two
// writers' counts on one line.
func TestPerWriterSlotsOwnCacheLines(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		spec := closedSpec()
		spec.Workers = workers
		g, err := NewGenerator(spec, func(int, uint64, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		checkStride(t, "Generator.counts", unsafe.Sizeof(g.counts[0]), unsafe.Pointer(&g.counts[0]))
	}
	pool := NewPool(PoolOptions{Shards: 2})
	defer pool.Close()
	checkStride(t, "rwStripe", unsafe.Sizeof(pool.topo.stripes[0]), unsafe.Pointer(&pool.topo.stripes[0]))
	checkStride(t, "bridge.forwards", unsafe.Sizeof(pool.bridge.forwards[0]), unsafe.Pointer(&pool.bridge.forwards[0]))
	if n := len(pool.bridge.forwards); n != obs.Lanes {
		t.Errorf("bridge.forwards has %d slots, want one per lane (%d)", n, obs.Lanes)
	}
	if n := len(pool.topo.stripes); n != obs.Lanes {
		t.Errorf("placement lock has %d stripes, want one per lane (%d)", n, obs.Lanes)
	}
	sess, err := NewSession(pool, closedSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkStride(t, "Session.delivered", unsafe.Sizeof(sess.delivered[0]), unsafe.Pointer(&sess.delivered[0]))
}

// checkStride fails unless a slot of size stride fills whole cache
// lines and the slot at first starts on one.
func checkStride(t *testing.T, name string, stride uintptr, first unsafe.Pointer) {
	t.Helper()
	if stride < 64 || stride%64 != 0 {
		t.Errorf("%s: stride %d bytes, want a multiple of 64", name, stride)
	}
	if addr := uintptr(first); addr%64 != 0 {
		t.Errorf("%s: first slot at %#x, not on a 64-byte line", name, addr)
	}
}
