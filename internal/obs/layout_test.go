package obs

import (
	"testing"
	"unsafe"
)

// TestLaneSlotsOwnCacheLines pins the layout of the tracer's per-lane
// counts and of a histogram's lane stripes: each lane's fills whole
// 64-byte cache lines, starting on a line boundary, so two lanes'
// sampled deliveries write no common line.
func TestLaneSlotsOwnCacheLines(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	if stride := unsafe.Sizeof(tracerLane{}); stride < 64 || stride%64 != 0 {
		t.Errorf("tracerLane stride %d bytes, want a multiple of 64", stride)
	}
	if addr := uintptr(unsafe.Pointer(&tr.lanes[0])); addr%64 != 0 {
		t.Errorf("tracer lane 0 at %#x, not on a 64-byte line", addr)
	}
	if laneSlots*Lanes != spanSlots {
		t.Errorf("%d lanes of %d span slots do not fill the %d-slot ring", Lanes, laneSlots, spanSlots)
	}
	for _, buckets := range [][]float64{{1}, {1, 2, 3, 4, 5, 6}, DefBuckets} {
		h := r.Histogram("layout_seconds_"+string(rune('a'+len(buckets))), "", buckets)
		h.observeLane(1, 0.5)
		ls := h.c.stripes.Load()
		if stride := uintptr(ls.stride) * unsafe.Sizeof(ls.words[0]); stride < 64 || stride%64 != 0 || ls.stride < len(buckets)+3 {
			t.Errorf("%d buckets: stripe stride %d bytes (%d words), want a multiple of 64 holding %d words",
				len(buckets), stride, ls.stride, len(buckets)+3)
		}
		if addr := uintptr(unsafe.Pointer(&ls.words[0])); addr%64 != 0 {
			t.Errorf("%d buckets: stripes at %#x, not on a 64-byte line", len(buckets), addr)
		}
	}
}
