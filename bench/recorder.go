package main

import (
	"sort"
	"time"
)

// windowLen is the length of one measurement window. Every latency
// and rate metric is the median across windows of a within-window
// median: on a shared 2-core host anything mean-based moves with the
// host's stalls (whole-run mean REST throughput swung 9.2k–17.3k GET/s
// between identical runs).
const windowLen = 2 * time.Second

// warmup is the unrecorded lead-in of every timed run.
const warmup = 2 * time.Second

// opTimeout bounds one closed-loop operation; past it the operation
// counts as failed.
const opTimeout = 2 * time.Second

// window accumulates the operations that ended inside one window.
type window struct {
	latMs []float64     // latency of each successful op, ms
	units int           // work units completed (GETs, messages, ...)
	first time.Duration // start of the first op, offset from run start
	last  time.Duration // end of the last op
}

// recorder files closed-loop operations into fixed windows. It is used
// from the single load goroutine and needs no locking.
type recorder struct {
	start     time.Time
	windows   []window
	attempted int
	failed    int
}

func newRecorder(start time.Time, span time.Duration) *recorder {
	n := int(span / windowLen)
	if n < 1 {
		n = 1
	}
	return &recorder{start: start, windows: make([]window, n)}
}

// add records one operation that began at t0 and ended at t1 with the
// given measured latency. Failed operations count against attempted
// and are excluded from latency and throughput.
func (r *recorder) add(t0, t1 time.Time, lat time.Duration, units int, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	i := int(t1.Sub(r.start) / windowLen)
	if i >= len(r.windows) {
		i = len(r.windows) - 1
	}
	w := &r.windows[i]
	if len(w.latMs) == 0 {
		w.first = t0.Sub(r.start)
	}
	w.last = t1.Sub(r.start)
	w.latMs = append(w.latMs, float64(lat)/float64(time.Millisecond))
	w.units += units
}

// summary is the window-median view of a recorded run.
type summary struct {
	P50Ms  float64 `json:"latency_p50_ms"`
	TailMs float64 `json:"latency_tail_ms"`
	TailQ  float64 `json:"tail_quantile"`
	// AchievedPerSec is work over elapsed time. It counts every stall,
	// the host's included, which is why it is reported and not gated.
	AchievedPerSec float64 `json:"achieved_per_s"`
	Ops            int     `json:"ops"`
	Units          int     `json:"units"`
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	// Windows holds each window's raw statistics so two result files
	// can be judged comparable.
	Windows []windowStat `json:"windows"`
}

type windowStat struct {
	Ops            int     `json:"ops"`
	P50Ms          float64 `json:"p50_ms"`
	TailMs         float64 `json:"tail_ms"`
	AchievedPerSec float64 `json:"achieved_per_s"`
}

// summarize reduces the windows: per window the median latency, the
// tail percentile and the rate; across windows the median of
// each. The tail percentile is chosen once, from the smallest window,
// so every window reports the same one. Empty windows (a stalled run)
// are skipped.
func (r *recorder) summarize() summary {
	s := summary{Attempted: r.attempted, Failed: r.failed}
	minOps := 0
	for _, w := range r.windows {
		if n := len(w.latMs); n > 0 && (minOps == 0 || n < minOps) {
			minOps = n
		}
	}
	s.TailQ = tailQuantile(minOps)
	var p50s, tails, achieved []float64
	for _, w := range r.windows {
		if len(w.latMs) == 0 {
			continue
		}
		sorted := append([]float64(nil), w.latMs...)
		sort.Float64s(sorted)
		ws := windowStat{
			Ops:    len(sorted),
			P50Ms:  percentile(sorted, 0.5),
			TailMs: percentile(sorted, s.TailQ),
		}
		if busy := (w.last - w.first).Seconds(); busy > 0 {
			ws.AchievedPerSec = float64(w.units) / busy
		}
		s.Ops += ws.Ops
		s.Units += w.units
		s.Windows = append(s.Windows, ws)
		p50s = append(p50s, ws.P50Ms)
		tails = append(tails, ws.TailMs)
		achieved = append(achieved, ws.AchievedPerSec)
	}
	s.P50Ms, s.TailMs, s.AchievedPerSec = median(p50s), median(tails), median(achieved)
	return s
}
