package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "b.inner", Start: 50, End: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 20, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// Overlapping children are counted once and children are clipped to
// the parent, so a self time is never negative.
func TestSelfTimeOverlapAndClipping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "early", Start: 50, End: 120},    // starts before the parent
		{ID: 3, Parent: 1, Name: "overlap", Start: 110, End: 150}, // overlaps "early"
		{ID: 4, Parent: 1, Name: "late", Start: 190, End: 260},    // ends after the parent
		{ID: 5, Parent: 1, Name: "inverted", Start: 170, End: 160},
	}
	self := selfTimes(spans)
	// Covered: [100,150] and [190,200] = 60 of 100.
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if self[5] != 0 {
		t.Errorf("an inverted span has self time %d, want 0", self[5])
	}
	for id, v := range self {
		if v < 0 {
			t.Errorf("span %d has negative self time %d", id, v)
		}
	}
}

func TestSpanLogRenumbersAndSummarizes(t *testing.T) {
	var l spanLog
	tree := func(total, child int64) []span {
		return []span{
			{ID: 1, Name: "op", Start: 0, End: total},
			{ID: 2, Parent: 1, Name: "stage", Start: 0, End: child},
		}
	}
	l.op(tree(1000, 400))
	l.op(tree(3000, 1000))
	l.op(tree(2000, 2000))
	if len(l.spans) != 6 {
		t.Fatalf("%d spans, want 6", len(l.spans))
	}
	seen := map[int]bool{}
	for _, s := range l.spans {
		if seen[s.ID] {
			t.Errorf("span id %d used twice", s.ID)
		}
		seen[s.ID] = true
		if s.Parent != 0 && l.spans[s.Parent-1].Op != s.Op {
			t.Errorf("span %d's parent %d belongs to another operation", s.ID, s.Parent)
		}
	}
	dur, self, pct := l.summary()
	if dur["op"] != 2 || self["op"] != 0.6 || self["stage"] != 1 {
		t.Errorf("dur[op] %v self[op] %v self[stage] %v, want 2, 0.6, 1 us", dur["op"], self["op"], self["stage"])
	}
	// Properly nested spans: self times add up to the operation.
	if pct != 100 {
		t.Errorf("self times sum to %v%% of the operation, want 100", pct)
	}
}
