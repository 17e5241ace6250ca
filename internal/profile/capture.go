package profile

// Traffic capture: observe messages at their send offsets and fit
// them back into a Profile. The fit is per topic class (device topics
// collapse by stripping the per-device "-<idx>" suffix from the middle
// segment), aggregating inter-arrival gap statistics,
// payload field ranges, firmware skew, and a windowed burst detector.
// The fitted profile is an ordinary Profile value: committable to the
// scene repository, checkable by `dbox vet`, replayable by the swarm
// generator with the same seed.

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// burstWindow buckets arrivals for the burst detector: one scenario
// second is coarse enough to be cheap and fine enough to catch the
// multi-second burst shapes the Burst model expresses.
const burstWindow = time.Second

// topicAgg is one concrete topic's arrival state.
type topicAgg struct {
	last    time.Duration
	n       int64
	lastStr map[string]string // enum fields: last observed value
}

// fieldAgg aggregates one payload field across a class.
type fieldAgg struct {
	numeric  bool
	min, max float64
	n        int64
	states   map[string]int64
	changes  int64 // string-value transitions (enum PChange estimate)
	strN     int64
}

// classAgg aggregates one topic class.
type classAgg struct {
	topics map[string]*topicAgg
	count  int64

	// Gap statistics (seconds): linear and log moments, so the fit can
	// pick fixed/poisson/lognormal and parameterize each.
	gapN              int64
	gapSum, gapSumSq  float64
	logSum, logSumSq  float64
	firstAt, lastAt   time.Duration
	windows           map[int64]int64
	firmware          map[string]int64
	fields            map[string]*fieldAgg
	fieldOrder        []string
	sawPayload        bool
	malformedPayloads int64
}

// Capture records traffic into per-class aggregates. ObserveAt is
// safe for concurrent use. Each message carries the scenario offset it
// was sent at (a swarm generator's schedule, a trace record's
// timestamp), so the fit never reads a clock.
type Capture struct {
	mu    sync.Mutex
	total int64
	byCls map[string]*classAgg
}

// NewCapture starts an empty capture.
func NewCapture() *Capture {
	return &Capture{byCls: map[string]*classAgg{}}
}

// ClassOf maps a topic to its capture class: the second topic level
// with any trailing "-<digits>" device index stripped, so
// "swarm/thermostat-17/status" and "swarm/thermostat-3/status" fit one
// population. Topics with a single level class as themselves.
func ClassOf(topic string) string {
	seg := topic
	if i := strings.IndexByte(topic, '/'); i >= 0 {
		seg = topic[i+1:]
		if j := strings.IndexByte(seg, '/'); j >= 0 {
			seg = seg[:j]
		}
	}
	if i := strings.LastIndexByte(seg, '-'); i > 0 && isDigits(seg[i+1:]) {
		seg = seg[:i]
	}
	if seg == "" {
		return "device"
	}
	return seg
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// ObserveAt records one message published at scenario offset at. The
// offsets of one topic must not decrease; topics may interleave in any
// order.
func (c *Capture) ObserveAt(at time.Duration, topic string, payload []byte) {
	cls := ClassOf(topic)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	agg := c.byCls[cls]
	if agg == nil {
		agg = &classAgg{
			topics:   map[string]*topicAgg{},
			windows:  map[int64]int64{},
			firmware: map[string]int64{},
			fields:   map[string]*fieldAgg{},
			firstAt:  at,
			lastAt:   at,
		}
		c.byCls[cls] = agg
	}
	agg.count++
	agg.firstAt = min(agg.firstAt, at)
	agg.lastAt = max(agg.lastAt, at)
	agg.windows[int64(at/burstWindow)]++

	ta := agg.topics[topic]
	if ta == nil {
		ta = &topicAgg{lastStr: map[string]string{}}
		agg.topics[topic] = ta
	} else {
		gap := (at - ta.last).Seconds()
		if gap > 0 {
			agg.gapN++
			agg.gapSum += gap
			agg.gapSumSq += gap * gap
			lg := math.Log(gap)
			agg.logSum += lg
			agg.logSumSq += lg * lg
		}
	}
	ta.last = at
	ta.n++

	c.observePayload(agg, ta, payload)
}

// observePayload folds one JSON payload into the class's field
// aggregates. Non-JSON payloads count as malformed and contribute no
// schema; "seq" and "kind" are bookkeeping, "fw" feeds firmware skew.
func (c *Capture) observePayload(agg *classAgg, ta *topicAgg, payload []byte) {
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		agg.malformedPayloads++
		return
	}
	agg.sawPayload = true
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := doc[k]
		switch k {
		case "seq", "kind":
			continue
		case "fw":
			if s, ok := v.(string); ok {
				agg.firmware[s]++
				continue
			}
		}
		fa := agg.fields[k]
		if fa == nil {
			fa = &fieldAgg{min: math.Inf(1), max: math.Inf(-1), states: map[string]int64{}}
			agg.fields[k] = fa
			agg.fieldOrder = append(agg.fieldOrder, k)
		}
		switch val := v.(type) {
		case float64:
			fa.numeric = true
			fa.n++
			if val < fa.min {
				fa.min = val
			}
			if val > fa.max {
				fa.max = val
			}
		case string:
			fa.strN++
			fa.states[val]++
			if prev, ok := ta.lastStr[k]; ok && prev != val {
				fa.changes++
			}
			ta.lastStr[k] = val
		}
	}
}

// Total returns the number of observed messages.
func (c *Capture) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// ClassCounts returns observed message counts per class.
func (c *Capture) ClassCounts() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byCls))
	for cls, agg := range c.byCls {
		out[cls] = agg.count
	}
	return out
}

// FitOptions parameterize Fit.
type FitOptions struct {
	// Name is the fitted profile's name; "" defaults to "captured".
	Name string
	// Seed is stamped into the profile so a replay is reproducible;
	// 0 defaults to 1.
	Seed int64
}

// Fit distills the capture into a profile: one population per topic
// class, its device count from the distinct topics seen, its cadence
// from the gap moments (coefficient of variation picks fixed vs
// poisson vs lognormal), numeric fields as bounded random walks,
// string fields as enum machines with the measured transition rate,
// firmware skew from observed shares, and a Burst entry when the
// windowed arrival counts show a >=3x hot window. Returns nil when
// nothing was captured.
func (c *Capture) Fit(opts FitOptions) *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return nil
	}
	name := opts.Name
	if name == "" {
		name = "captured"
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Profile{Name: name, Seed: seed}

	classes := make([]string, 0, len(c.byCls))
	for cls := range c.byCls {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		agg := c.byCls[cls]
		pop := Population{Kind: cls, Count: len(agg.topics)}
		pop.Cadence = fitCadence(agg)
		pop.Burst = fitBurst(agg)
		if len(agg.firmware) > 0 {
			pop.Firmware = map[string]float64{}
			for vsn, n := range agg.firmware {
				pop.Firmware[vsn] = float64(n) / float64(agg.count)
			}
		}
		for _, k := range agg.fieldOrder {
			fa := agg.fields[k]
			switch {
			case fa.numeric && fa.n > 0:
				f := Field{Name: k, Gen: GenRandomWalk, Min: fa.min, Max: fa.max}
				if f.Max < f.Min { // single non-finite guard
					f.Min, f.Max = 0, 0
				}
				pop.Fields = append(pop.Fields, f)
			case fa.strN > 0:
				states := make([]string, 0, len(fa.states))
				for s := range fa.states {
					states = append(states, s)
				}
				// Most frequent first: the initial state of the fitted
				// machine is the mode of the observed stream.
				sort.Slice(states, func(i, j int) bool {
					if fa.states[states[i]] != fa.states[states[j]] {
						return fa.states[states[i]] > fa.states[states[j]]
					}
					return states[i] < states[j]
				})
				f := Field{Name: k, Gen: GenEnum, States: states}
				if fa.strN > 1 {
					f.PChange = float64(fa.changes) / float64(fa.strN)
				}
				pop.Fields = append(pop.Fields, f)
			}
		}
		p.Populations = append(p.Populations, pop)
	}
	return p
}

// fitCadence picks a distribution from the gap moments. The
// coefficient of variation separates the three shapes the model
// expresses: a ticker has cv ~ 0, Poisson arrivals have cv ~ 1, and a
// heavy tail pushes cv past that.
func fitCadence(agg *classAgg) Cadence {
	if agg.gapN == 0 {
		// One message per topic (or one topic, one message): the only
		// cadence evidence is the observation span itself.
		span := agg.lastAt - agg.firstAt
		if span <= 0 {
			span = time.Second
		}
		return Cadence{Dist: DistFixed, Mean: span}
	}
	mean := agg.gapSum / float64(agg.gapN)
	variance := agg.gapSumSq/float64(agg.gapN) - mean*mean
	if variance < 0 {
		variance = 0
	}
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(variance) / mean
	}
	switch {
	case cv < 0.25:
		return Cadence{Dist: DistFixed, Mean: durSec(mean)}
	case math.Abs(cv-1) <= 0.4:
		return Cadence{Dist: DistPoisson, Mean: durSec(mean)}
	default:
		logMean := agg.logSum / float64(agg.gapN)
		logVar := agg.logSumSq/float64(agg.gapN) - logMean*logMean
		if logVar < 0 {
			logVar = 0
		}
		// Median-anchored, matching the sampler's lognormal draw.
		return Cadence{Dist: DistLognormal, Mean: durSec(math.Exp(logMean)), Sigma: math.Sqrt(logVar)}
	}
}

// fitBurst reports a Burst when some one-second window carried at
// least 3x the average arrival count over at least 5 windows — the
// signature of a correlated burst rather than ordinary jitter.
func fitBurst(agg *classAgg) *Burst {
	if len(agg.windows) < 5 {
		return nil
	}
	var total, max int64
	for _, n := range agg.windows {
		total += n
		if n > max {
			max = n
		}
	}
	avg := float64(total) / float64(len(agg.windows))
	if avg <= 0 || float64(max) < 3*avg {
		return nil
	}
	span := agg.lastAt - agg.firstAt
	if span < burstWindow {
		span = burstWindow
	}
	return &Burst{
		Every:  span.Round(burstWindow),
		Length: burstWindow,
		Factor: math.Round(float64(max) / avg),
	}
}

// durSec converts seconds to a millisecond-rounded duration (profiles
// serialize cadence at millisecond resolution).
func durSec(sec float64) time.Duration {
	d := time.Duration(sec * float64(time.Second)).Round(time.Millisecond)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}
