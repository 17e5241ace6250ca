// Package profile models heterogeneous device populations: a seeded,
// YAML-serializable description of what a fleet *sends* — per-kind
// payload schemas with field generators, inter-message cadence
// distributions, diurnal and burst modulation, firmware-version skew,
// and population mixes — compiled into a deterministic sampler whose
// schedule is a pure function of (profile, seed, device). The sampler
// emits offsets from run start, never wall timestamps, so the swarm
// generator can pace it on any injected clock and the resulting digest
// is identical at -speed 1 and -speed max.
//
// The second half is capture: a Capture observes live broker/swarm
// traffic (on the same injected clock) and fits it back into a
// Profile — per-topic-class cadence statistics, payload field ranges,
// burst detection — so recorded traffic round-trips through the scene
// repository as a committable, vettable, replayable object.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/yamlite"
)

// Cadence distribution names.
const (
	DistFixed     = "fixed"     // constant gap
	DistPoisson   = "poisson"   // exponential gaps (memoryless arrivals)
	DistLognormal = "lognormal" // heavy-tailed gaps, Sigma is the log-stddev
)

// Field generator names.
const (
	GenRandomWalk = "randomwalk" // bounded random walk, Step per message
	GenSine       = "sine"       // sinusoid over Period with phase jitter
	GenEnum       = "enum"       // state machine over States, PChange per message
	GenSpike      = "spike"      // baseline Min with probability-P spikes to [Min,Max]
)

// Profile describes a device population mix. The zero value is not
// usable; build one by hand, Parse one from YAML, or Fit one from a
// Capture.
type Profile struct {
	// Name identifies the profile in the scene repository.
	Name string
	// Seed derives every per-device generator state. A profile is
	// replayable because the seed travels with it.
	Seed int64
	// Populations are the device groups in the mix.
	Populations []Population
}

// Population is one homogeneous device group.
type Population struct {
	// Kind names the device class; it becomes the middle topic segment
	// ("swarm/<kind>-<idx>/status") and must be a single MQTT level.
	Kind string
	// Count is the explicit device count. When 0 the population takes a
	// Weight share of whatever device budget the compiler is given.
	Count int
	// Weight is the share of the unallocated device budget this
	// population claims when Count is 0 (normalized across such
	// populations).
	Weight float64
	// Firmware maps version strings to population shares; each device
	// is pinned to one version at compile time and reports it in every
	// payload. Empty means no firmware field.
	Firmware map[string]float64
	// Cadence is the inter-message gap distribution.
	Cadence Cadence
	// Burst optionally multiplies the rate during periodic windows.
	Burst *Burst
	// Fields are the payload schema, emitted in declaration order.
	Fields []Field
}

// Cadence is an inter-message gap distribution, optionally modulated
// by a diurnal curve.
type Cadence struct {
	// Dist is the distribution name (DistFixed, DistPoisson,
	// DistLognormal). Empty defaults to DistFixed.
	Dist string
	// Mean is the mean inter-message gap.
	Mean time.Duration
	// Sigma is the lognormal log-stddev (ignored by other dists).
	Sigma float64
	// Spread staggers a fixed cadence across the population instead of
	// firing every device on the same instants: device k of n first
	// fires at Mean·k/n, then every Mean. The offsets are fixed at
	// Compile, so the schedule does not depend on how a generator
	// shares devices among workers. Only a fixed cadence with no
	// diurnal or burst modulation can be spread.
	Spread bool
	// Diurnal optionally gates and shapes the rate over the scenario
	// day.
	Diurnal *Diurnal
}

// Diurnal modulates a cadence over the 24-hour scenario day: messages
// flow only inside the [Start, End) hour window, ramped by a
// half-sine from Trough at the window edges to full rate mid-window.
type Diurnal struct {
	// Start and End bound the active window in scenario hours of day
	// [0, 24]; Start must be strictly less than End (an empty window
	// can never fire — vet rule V018).
	Start, End float64
	// Trough is the rate multiplier at the window edges, in (0, 1];
	// 0 defaults to 1 (flat window).
	Trough float64
}

// Burst is periodic rate amplification: every Every of scenario time,
// the rate multiplies by Factor for Length. Each device gets a seeded
// phase so a population's bursts are correlated in width, not aligned
// to the second.
type Burst struct {
	Every  time.Duration
	Length time.Duration
	Factor float64
}

// Field is one payload field generator.
type Field struct {
	// Name is the JSON key.
	Name string
	// Gen is the generator name (GenRandomWalk, GenSine, GenEnum,
	// GenSpike).
	Gen string
	// Min and Max bound numeric generators.
	Min, Max float64
	// Step is the random-walk step as a fraction of the range per
	// message; 0 defaults to 0.05.
	Step float64
	// Period is the sine period; 0 defaults to 24h.
	Period time.Duration
	// States are the enum states (first is the initial state).
	States []string
	// PChange is the enum per-message transition probability; 0
	// defaults to 0.1.
	PChange float64
	// P is the spike per-message probability; 0 defaults to 0.01.
	P float64
}

// TotalCount sums the explicit population counts.
func (p *Profile) TotalCount() int {
	n := 0
	for _, pop := range p.Populations {
		n += pop.Count
	}
	return n
}

// Validate checks structural well-formedness: names present, known
// distribution and generator identifiers, sane bounds. Satisfiability
// (can this profile ever emit a message?) is vet rule V018's job —
// see Unsatisfiable.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: name required")
	}
	if len(p.Populations) == 0 {
		return fmt.Errorf("profile: at least one population required")
	}
	seen := map[string]bool{}
	for i, pop := range p.Populations {
		where := fmt.Sprintf("population %d (%s)", i, pop.Kind)
		if pop.Kind == "" {
			return fmt.Errorf("profile: population %d has no kind", i)
		}
		if strings.ContainsAny(pop.Kind, "/+#") {
			return fmt.Errorf("profile: %s: kind must be a single MQTT topic level", where)
		}
		if seen[pop.Kind] {
			return fmt.Errorf("profile: duplicate population kind %q", pop.Kind)
		}
		seen[pop.Kind] = true
		if pop.Count < 0 {
			return fmt.Errorf("profile: %s: negative count", where)
		}
		if pop.Weight < 0 {
			return fmt.Errorf("profile: %s: negative weight", where)
		}
		switch pop.Cadence.Dist {
		case "", DistFixed, DistPoisson, DistLognormal:
		default:
			return fmt.Errorf("profile: %s: unknown cadence dist %q (want %s, %s or %s)",
				where, pop.Cadence.Dist, DistFixed, DistPoisson, DistLognormal)
		}
		if pop.Cadence.Sigma < 0 {
			return fmt.Errorf("profile: %s: negative cadence sigma", where)
		}
		fixed := pop.Cadence.Dist == "" || pop.Cadence.Dist == DistFixed
		if pop.Cadence.Spread && (!fixed || pop.Cadence.Diurnal != nil || pop.Burst != nil) {
			return fmt.Errorf("profile: %s: spread needs a %s cadence with no diurnal or burst modulation", where, DistFixed)
		}
		if d := pop.Cadence.Diurnal; d != nil {
			if d.Start < 0 || d.End > 24 || d.Trough < 0 || d.Trough > 1 {
				return fmt.Errorf("profile: %s: diurnal window must sit inside [0,24] with trough in [0,1]", where)
			}
		}
		for vsn, share := range pop.Firmware {
			if vsn == "" {
				return fmt.Errorf("profile: %s: empty firmware version", where)
			}
			if share < 0 {
				return fmt.Errorf("profile: %s: firmware %q has a negative share", where, vsn)
			}
		}
		fields := map[string]bool{}
		for _, f := range pop.Fields {
			if f.Name == "" {
				return fmt.Errorf("profile: %s: field with no name", where)
			}
			if fields[f.Name] {
				return fmt.Errorf("profile: %s: duplicate field %q", where, f.Name)
			}
			fields[f.Name] = true
			switch f.Gen {
			case "", GenRandomWalk, GenSine, GenSpike:
				if f.Max < f.Min {
					return fmt.Errorf("profile: %s: field %q has max < min", where, f.Name)
				}
			case GenEnum:
				if len(f.States) == 0 {
					return fmt.Errorf("profile: %s: enum field %q needs at least one state", where, f.Name)
				}
			default:
				return fmt.Errorf("profile: %s: field %q has unknown generator %q (want %s, %s, %s or %s)",
					where, f.Name, f.Gen, GenRandomWalk, GenSine, GenEnum, GenSpike)
			}
		}
	}
	return nil
}

// Problem is one satisfiability finding: a profile clause that can
// never produce (or always suppresses) traffic, with a mechanical fix.
type Problem struct {
	// Population is the offending population kind ("" for profile-wide
	// problems like a zero mix).
	Population string
	// Message states what can never fire.
	Message string
	// Fix is the mechanical fix-it hint.
	Fix string
}

// Unsatisfiable reports every clause of the profile that can never
// emit a message — the substance of vet rule V018. A structurally
// invalid profile (Validate fails) reports that single problem.
func (p *Profile) Unsatisfiable() []Problem {
	if err := p.Validate(); err != nil {
		return []Problem{{Message: err.Error(), Fix: "fix the structural error first"}}
	}
	var out []Problem
	anyDevices := false
	anyWeight := false
	for _, pop := range p.Populations {
		if pop.Count > 0 {
			anyDevices = true
		}
		if pop.Count == 0 && pop.Weight > 0 {
			anyWeight = true
		}
		if pop.Cadence.Mean <= 0 {
			out = append(out, Problem{
				Population: pop.Kind,
				Message:    fmt.Sprintf("cadence mean_ms %d is not positive, so the rate is <= 0 and no message can ever fire", pop.Cadence.Mean.Milliseconds()),
				Fix:        "set cadence.mean_ms to a positive inter-message gap (e.g. 1000 for one message per second)",
			})
		}
		if d := pop.Cadence.Diurnal; d != nil && d.End <= d.Start {
			out = append(out, Problem{
				Population: pop.Kind,
				Message:    fmt.Sprintf("diurnal window [%g, %g) is empty, so the population is never active", d.Start, d.End),
				Fix:        "set diurnal.end_hour strictly greater than diurnal.start_hour (or drop the diurnal section for always-on)",
			})
		}
		if b := pop.Burst; b != nil && (b.Every <= 0 || b.Length <= 0 || b.Factor <= 0) {
			out = append(out, Problem{
				Population: pop.Kind,
				Message: fmt.Sprintf("burst every_ms=%d length_ms=%d factor=%g can never fire a burst window",
					b.Every.Milliseconds(), b.Length.Milliseconds(), b.Factor),
				Fix: "give burst positive every_ms, length_ms and factor (or drop the burst section)",
			})
		}
		if len(pop.Firmware) > 0 {
			total := 0.0
			for _, share := range pop.Firmware {
				total += share
			}
			if total <= 0 {
				out = append(out, Problem{
					Population: pop.Kind,
					Message:    "firmware shares sum to 0, so no device can be assigned a version",
					Fix:        "give at least one firmware version a positive share",
				})
			}
		}
	}
	if !anyDevices && !anyWeight {
		out = append(out, Problem{
			Message: "population mix is empty: every count is 0 and every weight is 0, so no device exists",
			Fix:     "give at least one population a positive count or weight",
		})
	}
	return out
}

// Value renders the profile as the plain yamlite value tree (the
// inverse of FromValue). Durations serialize as integral milliseconds.
func (p *Profile) Value() any {
	pops := make([]any, 0, len(p.Populations))
	for _, pop := range p.Populations {
		m := map[string]any{"kind": pop.Kind}
		if pop.Count != 0 {
			m["count"] = int64(pop.Count)
		}
		if pop.Weight != 0 {
			m["weight"] = pop.Weight
		}
		if len(pop.Firmware) > 0 {
			fw := map[string]any{}
			for vsn, share := range pop.Firmware {
				fw[vsn] = share
			}
			m["firmware"] = fw
		}
		cad := map[string]any{"mean_ms": pop.Cadence.Mean.Milliseconds()}
		if pop.Cadence.Dist != "" {
			cad["dist"] = pop.Cadence.Dist
		}
		if pop.Cadence.Sigma != 0 {
			cad["sigma"] = pop.Cadence.Sigma
		}
		if pop.Cadence.Spread {
			cad["spread"] = true
		}
		if d := pop.Cadence.Diurnal; d != nil {
			dm := map[string]any{"start_hour": d.Start, "end_hour": d.End}
			if d.Trough != 0 {
				dm["trough"] = d.Trough
			}
			cad["diurnal"] = dm
		}
		m["cadence"] = cad
		if b := pop.Burst; b != nil {
			m["burst"] = map[string]any{
				"every_ms":  b.Every.Milliseconds(),
				"length_ms": b.Length.Milliseconds(),
				"factor":    b.Factor,
			}
		}
		if len(pop.Fields) > 0 {
			fields := make([]any, 0, len(pop.Fields))
			for _, f := range pop.Fields {
				fm := map[string]any{"name": f.Name}
				if f.Gen != "" {
					fm["gen"] = f.Gen
				}
				switch f.Gen {
				case GenEnum:
					states := make([]any, len(f.States))
					for i, s := range f.States {
						states[i] = s
					}
					fm["states"] = states
					if f.PChange != 0 {
						fm["p_change"] = f.PChange
					}
				default:
					if f.Min != 0 {
						fm["min"] = f.Min
					}
					if f.Max != 0 {
						fm["max"] = f.Max
					}
					if f.Step != 0 {
						fm["step"] = f.Step
					}
					if f.Period != 0 {
						fm["period_ms"] = f.Period.Milliseconds()
					}
					if f.P != 0 {
						fm["p"] = f.P
					}
				}
				fields = append(fields, fm)
			}
			m["fields"] = fields
		}
		pops = append(pops, m)
	}
	out := map[string]any{
		"profile":     p.Name,
		"populations": pops,
	}
	if p.Seed != 0 {
		out["seed"] = p.Seed
	}
	return out
}

// IsProfileValue reports whether a decoded yamlite document looks like
// a profile (top-level "profile" name plus a "populations" list) —
// how `dbox vet` and the repository distinguish profile objects from
// setups.
func IsProfileValue(v any) bool {
	m, ok := v.(map[string]any)
	if !ok {
		return false
	}
	_, hasName := m["profile"].(string)
	_, hasPops := m["populations"].([]any)
	return hasName && hasPops
}

// FromValue rebuilds a profile from its yamlite value tree.
func FromValue(v any) (*Profile, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("profile: document must be a mapping")
	}
	name, _ := m["profile"].(string)
	if name == "" {
		return nil, fmt.Errorf("profile: missing profile name")
	}
	p := &Profile{Name: name, Seed: asInt64(m["seed"])}
	rawPops, ok := m["populations"].([]any)
	if !ok {
		return nil, fmt.Errorf("profile: populations must be a list")
	}
	for i, rp := range rawPops {
		pm, ok := rp.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("profile: population %d must be a mapping", i)
		}
		pop := Population{
			Kind:   stringOr(pm["kind"], ""),
			Count:  int(asInt64(pm["count"])),
			Weight: asFloat(pm["weight"]),
		}
		if fw, ok := pm["firmware"].(map[string]any); ok {
			pop.Firmware = map[string]float64{}
			for vsn, share := range fw {
				pop.Firmware[vsn] = asFloat(share)
			}
		}
		if cad, ok := pm["cadence"].(map[string]any); ok {
			pop.Cadence = Cadence{
				Dist:  stringOr(cad["dist"], ""),
				Mean:  time.Duration(asInt64(cad["mean_ms"])) * time.Millisecond,
				Sigma: asFloat(cad["sigma"]),
			}
			pop.Cadence.Spread, _ = cad["spread"].(bool)
			if dm, ok := cad["diurnal"].(map[string]any); ok {
				pop.Cadence.Diurnal = &Diurnal{
					Start:  asFloat(dm["start_hour"]),
					End:    asFloat(dm["end_hour"]),
					Trough: asFloat(dm["trough"]),
				}
			}
		}
		if bm, ok := pm["burst"].(map[string]any); ok {
			pop.Burst = &Burst{
				Every:  time.Duration(asInt64(bm["every_ms"])) * time.Millisecond,
				Length: time.Duration(asInt64(bm["length_ms"])) * time.Millisecond,
				Factor: asFloat(bm["factor"]),
			}
		}
		if rawFields, ok := pm["fields"].([]any); ok {
			for j, rf := range rawFields {
				fm, ok := rf.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("profile: population %d field %d must be a mapping", i, j)
				}
				f := Field{
					Name:    stringOr(fm["name"], ""),
					Gen:     stringOr(fm["gen"], ""),
					Min:     asFloat(fm["min"]),
					Max:     asFloat(fm["max"]),
					Step:    asFloat(fm["step"]),
					Period:  time.Duration(asInt64(fm["period_ms"])) * time.Millisecond,
					PChange: asFloat(fm["p_change"]),
					P:       asFloat(fm["p"]),
				}
				if states, ok := fm["states"].([]any); ok {
					for _, s := range states {
						f.States = append(f.States, stringOr(s, ""))
					}
				}
				pop.Fields = append(pop.Fields, f)
			}
		}
		p.Populations = append(p.Populations, pop)
	}
	sortFirmwareStable(p)
	return p, nil
}

// sortFirmwareStable is a no-op hook kept for clarity: firmware maps
// are consumed in sorted-key order everywhere (compile, marshal), so
// map iteration order never leaks into sampler output.
func sortFirmwareStable(*Profile) {}

// Marshal renders the profile as a single-document YAML object after
// validating it.
func Marshal(p *Profile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return yamlite.Encode(p.Value())
}

// Parse decodes a YAML profile document without validating
// satisfiability; Validate gates structure only.
func Parse(data []byte) (*Profile, error) {
	v, err := yamlite.Decode(data)
	if err != nil {
		return nil, err
	}
	p, err := FromValue(v)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// firmwareVersions returns a population's versions in sorted order with
// their cumulative shares normalized to 1 — the stable lookup table a
// device's compile-time draw lands in.
func (pop *Population) firmwareVersions() ([]string, []float64) {
	if len(pop.Firmware) == 0 {
		return nil, nil
	}
	versions := make([]string, 0, len(pop.Firmware))
	for vsn := range pop.Firmware {
		versions = append(versions, vsn)
	}
	sort.Strings(versions)
	total := 0.0
	for _, vsn := range versions {
		total += pop.Firmware[vsn]
	}
	if total <= 0 {
		return nil, nil
	}
	cum := make([]float64, len(versions))
	acc := 0.0
	for i, vsn := range versions {
		acc += pop.Firmware[vsn] / total
		cum[i] = acc
	}
	return versions, cum
}

func asInt64(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case int:
		return int64(n)
	case float64:
		return int64(n)
	}
	return 0
}

func asFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	case int:
		return float64(n)
	}
	return 0
}

func stringOr(v any, def string) string {
	if s, ok := v.(string); ok {
		return s
	}
	return def
}
