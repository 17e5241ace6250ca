package broker

import (
	"testing"
	"unsafe"
)

// TestLaneCountsOwnCacheLines pins the layout of the broker's per-lane
// counts: each lane's publish and delivery counts fill whole 64-byte
// cache lines, starting on a line boundary, so two lanes' publishes on
// two cores write no common line.
func TestLaneCountsOwnCacheLines(t *testing.T) {
	b := NewBroker(nil)
	defer b.Close()
	if stride := unsafe.Sizeof(laneCounts{}); stride < 64 || stride%64 != 0 {
		t.Errorf("laneCounts stride %d bytes, want a multiple of 64", stride)
	}
	if addr := uintptr(unsafe.Pointer(&b.lanes[0])); addr%64 != 0 {
		t.Errorf("lane 0's counts at %#x, not on a 64-byte line", addr)
	}
}
