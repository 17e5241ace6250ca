package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval of a traced operation. Spans of one
// operation share Op; Parent is the ID of the span that caused this
// one (0 for the operation's root). Times are nanoseconds since the
// traced run began.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// selfTimes returns each span's self time by ID: its duration minus
// the part of its interval that its child spans cover. Children are
// clipped to the parent and overlapping children are counted once, so
// a self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside
// parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// spanLog keeps the spans of a traced run in memory; they are written
// out once, when the run ends.
type spanLog struct {
	spans []span
	ops   int
}

// op appends the spans of one operation. tree lists them root first
// with IDs and parents local to the operation (1-based, parent 0 for
// the root); they are renumbered into the log's global ID space.
func (l *spanLog) op(tree []span) {
	l.ops++
	base := len(l.spans)
	for _, s := range tree {
		s.Op = l.ops
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// summary is the per-name view of a span log: the median duration and
// median self time of each span name in microseconds, and how closely
// the self times of an operation's spans add up to the operation's
// duration (median across operations, percent; 100 means nothing is
// double-counted or missing).
func (l *spanLog) summary() (durUs, selfUs map[string]float64, sumPct float64) {
	self := selfTimes(l.spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	opSelf, opDur := map[int]int64{}, map[int]int64{}
	for _, s := range l.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
		opSelf[s.Op] += self[s.ID]
		if s.Parent == 0 {
			opDur[s.Op] = s.dur()
		}
	}
	durUs, selfUs = map[string]float64{}, map[string]float64{}
	for name := range durs {
		durUs[name], selfUs[name] = median(durs[name]), median(selfs[name])
	}
	var pcts []float64
	for op, d := range opDur {
		if d > 0 {
			pcts = append(pcts, 100*float64(opSelf[op])/float64(d))
		}
	}
	return durUs, selfUs, median(pcts)
}

// write saves the log as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
