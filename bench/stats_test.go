package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("percentile(1..3, 0.5) = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail a window may report is the highest percentile with at
// least ten samples beyond it.
func TestTailQuantileTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{30000, 0.99}, // a 2-s window of REST GETs
		{1000, 0.99},  // exactly ten beyond p99
		{999, 0.95},
		{400, 0.95}, // the 200-events/s scene loop
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{10, 0.5}, // timewarp_fleet's handful of runs
		{0, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// iqrSpread must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark's driver uses.
func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{10, 12, 11, 15, 9, 30, 13, 12, 11, 10}, 0.30434782608695654},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{[]float64{5, 7}, 0.5},
		{[]float64{3, 1, 2}, 1},
		{[]float64{4}, 0},
	} {
		if got := iqrSpread(c.in); !near(got, c.want) {
			t.Errorf("iqrSpread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// A run's metric is the median across windows of the within-window
// statistic: one slow window must not move it.
func TestRecorderWindowMedian(t *testing.T) {
	start := time.Unix(1000, 0)
	rec := newRecorder(start, 3*windowLen)
	if len(rec.windows) != 3 {
		t.Fatalf("%d windows for a span of three, want 3", len(rec.windows))
	}
	// Window i gets 100 ops of latency lat[i], back to back over 1 s.
	lats := []time.Duration{time.Millisecond, 50 * time.Millisecond, 2 * time.Millisecond}
	for i, lat := range lats {
		base := start.Add(time.Duration(i) * windowLen)
		for k := 0; k < 100; k++ {
			t0 := base.Add(time.Duration(k) * 10 * time.Millisecond)
			rec.add(t0, t0.Add(10*time.Millisecond), lat, 2, nil)
		}
	}
	rec.add(start, start.Add(time.Millisecond), 0, 0, errors.New("timed out"))
	s := rec.summarize()
	if s.Attempted != 301 || s.Failed != 1 || s.Ops != 300 {
		t.Errorf("attempted %d failed %d ops %d, want 301, 1, 300", s.Attempted, s.Failed, s.Ops)
	}
	if s.P50Ms != 2 {
		t.Errorf("p50 = %v ms, want the middle window's 2", s.P50Ms)
	}
	if s.TailQ != 0.90 || s.TailMs != 2 {
		t.Errorf("tail = p%v %v ms, want p0.9 of 2 ms", s.TailQ, s.TailMs)
	}
	// 200 units over a busy span of 1 s in every window.
	if s.Units != 600 || !near(s.AchievedPerSec, 200) {
		t.Errorf("units %d at %v/s, want 600 at 200/s", s.Units, s.AchievedPerSec)
	}
	if len(s.Windows) != 3 || s.Windows[1].P50Ms != 50 {
		t.Errorf("raw windows not kept: %+v", s.Windows)
	}
}

// An operation that ends past the last boundary (the loop's final one)
// belongs to the last window; an empty window is skipped, not averaged
// in as zero.
func TestRecorderEdges(t *testing.T) {
	start := time.Unix(1000, 0)
	rec := newRecorder(start, 2*windowLen)
	t0 := start.Add(2*windowLen - time.Millisecond)
	rec.add(t0, t0.Add(5*time.Millisecond), 5*time.Millisecond, 1, nil)
	s := rec.summarize()
	if len(s.Windows) != 1 || s.P50Ms != 5 {
		t.Errorf("summary %+v, want the one late op alone in one window", s)
	}
	if got := newRecorder(start, time.Second); len(got.windows) != 1 {
		t.Errorf("a span under one window gives %d windows, want 1", len(got.windows))
	}
}
