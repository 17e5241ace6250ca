// Package obs is Digibox's dependency-free metrics substrate: atomic
// counters, gauges, and fixed-bucket histograms collected in a
// Registry and exposed in Prometheus text format or as a JSON
// snapshot, plus a lightweight publish→deliver span tracer (span.go)
// that turns broker deliveries into true end-to-end MQTT latency
// histograms.
//
// Design constraints, in order:
//
//  1. Zero hot-path cost when disabled: every constructor and method
//     is nil-receiver-safe, so code instruments unconditionally and a
//     nil *Registry collapses the whole layer to predictable no-ops.
//  2. Near-zero cost when enabled: instruments are single atomic adds;
//     values that subsystems already maintain (broker counters, pod
//     phases) are registered as Func metrics read only at gather time.
//  3. No dependencies: the exposition format is the small, stable
//     subset of the Prometheus text format that real scrapers accept.
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// A Kind classifies a metric family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Shared family names incremented from more than one layer. The chaos
// engine counts explicit fault reverts and the digi runtime counts
// broker-session recoveries into the same recovered family (label
// "via" tells them apart); CI gates on recovered >= injected.
const (
	FaultsInjectedName  = "digibox_faults_injected_total"
	FaultsRecoveredName = "digibox_faults_recovered_total"

	// E2ETopicLatencyName is fed by the tracer and re-read by swarm
	// session reports (registration is idempotent for an identical
	// kind + label schema).
	E2ETopicLatencyName = "digibox_e2e_topic_latency_seconds"
)

// DefBuckets are the default latency buckets in seconds, spanning the
// in-process publish path (~1µs) through wire round-trips and chaos
// recovery windows (~seconds).
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// Registry holds metric families. The zero value is not usable; a nil
// *Registry is, and yields no-op instruments everywhere.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric family: a fixed kind, label schema, and
// (for histograms) bucket bounds, with one child instrument per
// distinct label-value tuple. Unlabelled families have a single child
// under the empty key.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram upper bounds, strictly increasing

	mu   sync.Mutex
	kids map[string]*child
}

// child is one concrete time series.
type child struct {
	labelVals []string

	// counter/gauge state: value is fixed-point in the sense that
	// integer Adds dominate; stored as float bits for gauge Set.
	bits atomic.Uint64

	// fn, when set, supersedes bits at gather time (Func metrics).
	fn func() float64

	// histogram state.
	counts  []atomic.Uint64 // one per bound, plus +Inf at the end
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func (f *family) get(vals []string) *child {
	key := strings.Join(vals, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.kids[key]
	if !ok {
		c = &child{labelVals: append([]string(nil), vals...)}
		if f.kind == KindHistogram {
			c.counts = make([]atomic.Uint64, len(f.bounds)+1)
		}
		f.kids[key] = c
	}
	return c
}

// register returns the named family, creating it on first use.
// Registration is idempotent so independent layers can share a family
// (see FaultsRecoveredName); a kind or label-schema mismatch is a
// programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: conflicting registration of %s: %s%v vs %s%v",
				name, f.kind, f.labels, kind, labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		kids:   map[string]*child{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- Counter ----

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Counter registers (or finds) an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, KindCounter, nil, nil)
	return &Counter{c: f.get(nil)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; negative adds are ignored).
func (c *Counter) Add(n float64) {
	if c == nil || n < 0 {
		return
	}
	addFloat(&c.c.bits, n)
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.c.bits.Store(math.Float64bits(v))
}

// addFloat is a lock-free float64 accumulate (CAS loop; contention on
// these cells is low because hot counters are per-child).
func addFloat(bits *atomic.Uint64, n float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + n)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ---- Func metrics ----

// CounterFunc registers a counter whose value is computed at gather
// time — the pattern for exposing counters a subsystem already
// maintains (broker atomics) with zero added hot-path cost.
// Re-registering the same name replaces the function (a restarted
// broker rebinding its views).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, KindCounter, nil, nil)
	c := f.get(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge computed at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, KindGauge, nil, nil)
	c := f.get(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// ---- Histogram ----

// Histogram counts observations into fixed buckets. Bucket bounds are
// inclusive upper bounds in the observation's unit (seconds for all
// latency families here), per the Prometheus "le" convention.
type Histogram struct {
	c      *child
	bounds []float64
}

// Histogram registers (or finds) an unlabelled histogram family.
// bounds must be strictly increasing; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil, bounds)
	return &Histogram{c: f.get(nil), bounds: f.bounds}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	observe(h.c, h.bounds, v)
}

func observe(c *child, bounds []float64, v float64) {
	// Bucket search is linear: bucket counts are small (~20) and the
	// common observations land in the first third, beating a binary
	// search's branch misses at this size.
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	c.counts[i].Add(1)
	c.count.Add(1)
	addFloat(&c.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.c.count.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket that crosses the target rank —
// the same estimate PromQL's histogram_quantile produces. Returns 0
// with no observations; observations beyond the last bound clamp to
// that bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantile(snapshotHist(h.c, h.bounds), h.bounds, q)
}

// quantile works on a consistent copy of cumulative-free bucket counts.
func quantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range counts {
		cum += n
		if float64(cum) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1] // +Inf bucket clamps
			}
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			upper := bounds[i]
			if n == 0 {
				return upper
			}
			frac := (rank - float64(cum-n)) / float64(n)
			return lower + (upper-lower)*frac
		}
	}
	return bounds[len(bounds)-1]
}

func snapshotHist(c *child, bounds []float64) []uint64 {
	out := make([]uint64, len(bounds)+1)
	for i := range c.counts {
		out[i] = c.counts[i].Load()
	}
	return out
}

// ---- Labelled vectors ----

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{c: v.f.get(vals)}
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{c: v.f.get(vals)}
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{c: v.f.get(vals), bounds: v.f.bounds}
}

// ---- Whole-registry reads ----

// Value returns the summed value of a family across its children
// (histograms sum observation counts). It is the single-pass read
// Testbed.Stats uses: one registry lock, every family read in the
// same sweep.
func (r *Registry) Value(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return f.sum()
}

// Values returns every family's summed value in one locked sweep, so
// callers get a mutually consistent snapshot (no family is read at a
// later instant than another by more than the sweep itself).
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(fams))
	for _, f := range fams {
		out[f.name] = f.sum()
	}
	return out
}

func (f *family) sum() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total float64
	for _, c := range f.kids {
		switch {
		case f.kind == KindHistogram:
			total += float64(c.count.Load())
		case c.fn != nil:
			total += c.fn()
		default:
			total += math.Float64frombits(c.bits.Load())
		}
	}
	return total
}

// TopicClass generalises an MQTT topic into a class by replacing the
// middle segments with "+": "digibox/L1/status" -> "digibox/+/status".
// One- and two-segment topics are their own class. Latency histograms
// are keyed by class so per-device topics don't explode cardinality.
func TopicClass(topic string) string {
	first := strings.IndexByte(topic, '/')
	last := strings.LastIndexByte(topic, '/')
	if first < 0 || first == last {
		return topic
	}
	return topic[:first] + "/+" + topic[last:]
}
