package profile

// The compiled half of a profile: a Sampler owns one small state
// struct per device and answers "when does device d speak next, and
// what does it say" as pure offsets from run start. Nothing here
// touches a clock — pacing belongs to the swarm load generator, which
// sleeps the sampled gaps on whatever clock.Clock it was injected
// with. That split is what makes profiled runs digest-invariant
// across -speed factors: the schedule is decided by arithmetic on
// (profile, seed, device index), and the clock only decides how much
// wall time each already-decided gap costs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/rng"
)

// minGap floors every sampled inter-message gap. A pathological
// modulation stack (deep trough × heavy lognormal left tail) could
// otherwise sample denormal gaps and melt a run into a spin; 1ms is
// three orders below any cadence a fleet profile plausibly declares.
const minGap = time.Millisecond

// fieldState is one field generator's mutable state.
type fieldState struct {
	value float64 // randomwalk/spike current, enum state index
	phase float64 // sine phase offset in [0,1)
}

// devState is one compiled device: everything NextFire needs, and
// nothing else — the whole point of swarm mode is that 10k devices
// cost 10k small structs.
type devState struct {
	pop    int
	kind   string
	fw     string
	rng    rng.Stream
	at     time.Duration
	seq    uint64
	burst  time.Duration // per-device burst phase offset
	fields []fieldState
}

// Sampler is a compiled profile: a deterministic traffic schedule for
// a concrete device count. NextFire mutates per-device state, so each
// device index must be driven by at most one goroutine at a time —
// the load generator's round-robin device ownership (device d belongs
// to worker d mod W) guarantees that.
type Sampler struct {
	prof *Profile
	devs []devState
}

// Compile resolves the population mix against a device budget and
// seeds every device stream. devices <= 0 uses the profile's explicit
// counts; otherwise explicit counts are honored first and the
// remaining budget splits across weighted populations by largest
// remainder. seed is the fallback when the profile itself carries no
// seed, so `-seed` still steers an unseeded profile.
func Compile(p *Profile, devices int, seed int64) (*Sampler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if probs := p.Unsatisfiable(); len(probs) > 0 {
		return nil, fmt.Errorf("profile: unsatisfiable: %s", probs[0].Message)
	}
	if p.Seed != 0 {
		seed = p.Seed
	}
	if seed == 0 {
		seed = 1
	}
	counts := assign(p, devices)
	s := &Sampler{prof: p}
	for pi := range p.Populations {
		pop := &p.Populations[pi]
		versions, cum := pop.firmwareVersions()
		for k := 0; k < counts[pi]; k++ {
			idx := len(s.devs)
			d := devState{
				pop:  pi,
				kind: pop.Kind,
				// Device streams derive from (seed, global index), so two
				// samplers compiled from equal inputs are byte-identical.
				rng:    rng.New(uint64(seed), uint64(idx)),
				fields: make([]fieldState, len(pop.Fields)),
			}
			if len(versions) > 0 {
				u := d.rng.Float64()
				d.fw = versions[len(versions)-1]
				for i, c := range cum {
					if u < c {
						d.fw = versions[i]
						break
					}
				}
			}
			if b := pop.Burst; b != nil {
				d.burst = time.Duration(d.rng.Float64() * float64(b.Every))
			}
			if c := pop.Cadence; c.Spread {
				// NextFire adds one fixed gap of Mean, landing the first
				// message on Mean·k/n — computed from Mean's quotient and
				// remainder by n, because Mean·k overflows at a day-long
				// period over 107k devices.
				n := time.Duration(counts[pi])
				d.at = c.Mean/n*time.Duration(k) + c.Mean%n*time.Duration(k)/n - c.Mean
			}
			for fi, f := range pop.Fields {
				st := &d.fields[fi]
				switch f.Gen {
				case GenEnum:
					st.value = 0
				case GenSine:
					st.phase = d.rng.Float64()
				default: // randomwalk, spike, ""
					st.value = f.Min + d.rng.Float64()*(f.Max-f.Min)
				}
			}
			s.devs = append(s.devs, d)
		}
	}
	if len(s.devs) == 0 {
		return nil, fmt.Errorf("profile: %s compiles to zero devices", p.Name)
	}
	return s, nil
}

// assign splits a device budget across populations: explicit counts
// first, then the remainder by weight (largest remainder, stable
// declaration-order tie break).
func assign(p *Profile, devices int) []int {
	counts := make([]int, len(p.Populations))
	used := 0
	var weights float64
	for i, pop := range p.Populations {
		if pop.Count > 0 {
			counts[i] = pop.Count
			used += pop.Count
		} else {
			weights += pop.Weight
		}
	}
	rest := devices - used
	if rest <= 0 || weights <= 0 {
		return counts
	}
	type slot struct {
		i    int
		frac float64
	}
	var slots []slot
	assigned := 0
	for i, pop := range p.Populations {
		if pop.Count > 0 || pop.Weight <= 0 {
			continue
		}
		exact := float64(rest) * pop.Weight / weights
		counts[i] = int(exact)
		assigned += counts[i]
		slots = append(slots, slot{i, exact - float64(counts[i])})
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].frac > slots[b].frac })
	for k := 0; k < rest-assigned && k < len(slots); k++ {
		counts[slots[k].i]++
	}
	return counts
}

// Devices returns the compiled device count.
func (s *Sampler) Devices() int { return len(s.devs) }

// Kind returns device d's population kind.
func (s *Sampler) Kind(d int) string { return s.devs[d%len(s.devs)].kind }

// DeviceTopic returns device d's status topic: three levels
// ("prefix/kind-idx/status") so the obs topic class stays collapsed
// and the swarm session's "+" wildcard filter still matches.
func (s *Sampler) DeviceTopic(prefix string, d int) string {
	d = d % len(s.devs)
	return prefix + "/" + s.devs[d].kind + "-" + strconv.Itoa(d) + "/status"
}

// NextFire advances device d one message: it returns the offset from
// run start at which the message fires and the payload bytes. Offsets
// are strictly increasing per device. The caller stops scheduling a
// device once the returned offset passes its run window — the sampler
// itself has no horizon.
func (s *Sampler) NextFire(d int) (time.Duration, []byte) {
	st := &s.devs[d%len(s.devs)]
	pop := &s.prof.Populations[st.pop]
	st.at += s.gap(st, pop)
	st.seq++
	return st.at, s.payload(st, pop)
}

// gap samples the next inter-message gap for a device at its current
// offset: a base draw from the cadence distribution divided by the
// modulation (diurnal × burst) in force at that offset. When the
// diurnal window is closed the device skips to the next opening.
func (s *Sampler) gap(st *devState, pop *Population) time.Duration {
	cad := &pop.Cadence
	base := float64(cad.Mean)
	switch cad.Dist {
	case DistPoisson:
		base *= st.rng.ExpFloat64()
	case DistLognormal:
		sigma := cad.Sigma
		if sigma <= 0 {
			sigma = 0.5
		}
		// Median-anchored: exp(sigma·z) has median 1, so Mean stays the
		// typical gap instead of being dragged by the heavy tail.
		base *= math.Exp(sigma * st.rng.NormFloat64())
	}
	at := st.at
	if d := cad.Diurnal; d != nil {
		// Closed window: jump to the next opening, then modulate there.
		if !d.open(hourOf(at)) {
			at = d.nextOpen(at)
		}
		base /= d.factor(hourOf(at))
	}
	if b := pop.Burst; b != nil {
		if phase := (at + st.burst) % b.Every; phase < b.Length {
			base /= b.Factor
		}
	}
	gap := time.Duration(base)
	if gap < minGap {
		gap = minGap
	}
	return (at - st.at) + gap
}

// hourOf maps an offset from run start to the scenario hour of day.
func hourOf(at time.Duration) float64 {
	return math.Mod(at.Hours(), 24)
}

// open reports whether hour h falls inside the diurnal window.
func (d *Diurnal) open(h float64) bool {
	if d.Start == 0 && d.End == 0 {
		return true
	}
	return h >= d.Start && h < d.End
}

// factor is the rate multiplier at hour h inside the window: a
// half-sine ramp from Trough at the edges to 1 mid-window.
func (d *Diurnal) factor(h float64) float64 {
	if d.Start == 0 && d.End == 0 {
		return 1
	}
	trough := d.Trough
	if trough <= 0 {
		trough = 1
	}
	span := d.End - d.Start
	if span <= 0 {
		return trough
	}
	return trough + (1-trough)*math.Sin(math.Pi*(h-d.Start)/span)
}

// nextOpen returns the first offset at or after `at` whose hour of day
// is inside the window.
func (d *Diurnal) nextOpen(at time.Duration) time.Duration {
	h := hourOf(at)
	day := at - time.Duration(h*float64(time.Hour))
	if h < d.Start {
		return day + time.Duration(d.Start*float64(time.Hour))
	}
	return day + time.Duration((24+d.Start)*float64(time.Hour))
}

// payload builds the device's next message: compact JSON with the
// per-device sequence number, kind, firmware pin, and every schema
// field in declaration order.
func (s *Sampler) payload(st *devState, pop *Population) []byte {
	buf := make([]byte, 0, 64+24*len(pop.Fields))
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, st.seq, 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, st.kind...)
	buf = append(buf, '"')
	if st.fw != "" {
		buf = append(buf, `,"fw":"`...)
		buf = append(buf, st.fw...)
		buf = append(buf, '"')
	}
	for fi := range pop.Fields {
		f := &pop.Fields[fi]
		fst := &st.fields[fi]
		buf = append(buf, ',', '"')
		buf = append(buf, f.Name...)
		buf = append(buf, '"', ':')
		switch f.Gen {
		case GenEnum:
			p := f.PChange
			if p <= 0 {
				p = 0.1
			}
			if st.rng.Float64() < p && len(f.States) > 1 {
				// Uniform jump to one of the other states.
				jump := 1 + int(st.rng.Float64()*float64(len(f.States)-1))
				fst.value = math.Mod(fst.value+float64(jump), float64(len(f.States)))
			}
			buf = append(buf, '"')
			buf = append(buf, f.States[int(fst.value)]...)
			buf = append(buf, '"')
		case GenSine:
			period := f.Period
			if period <= 0 {
				period = 24 * time.Hour
			}
			mid := (f.Min + f.Max) / 2
			amp := (f.Max - f.Min) / 2
			v := mid + amp*math.Sin(2*math.Pi*(float64(st.at)/float64(period)+fst.phase))
			buf = appendFixed4(buf, v)
		case GenSpike:
			p := f.P
			if p <= 0 {
				p = 0.01
			}
			v := f.Min
			if st.rng.Float64() < p {
				v = f.Min + st.rng.Float64()*(f.Max-f.Min)
			}
			buf = appendFixed4(buf, v)
		default: // randomwalk and unnamed
			step := f.Step
			if step <= 0 {
				step = 0.05
			}
			fst.value += (st.rng.Float64() - 0.5) * 2 * step * (f.Max - f.Min)
			if fst.value < f.Min {
				fst.value = f.Min
			}
			if fst.value > f.Max {
				fst.value = f.Max
			}
			buf = appendFixed4(buf, fst.value)
		}
	}
	buf = append(buf, '}')
	return buf
}

// appendFixed4 appends v with four decimals, byte-identical to
// strconv.AppendFloat(buf, v, 'f', 4, 64). strconv formats a fixed
// precision through its multi-precision decimal path; here the exact
// value |v|·10⁴ = mant·625 · 2^(4-shift) is an integer product and a
// right shift, and the bits shifted out round half to even, as strconv
// rounds the exact value. NaN, ±Inf and |v| ≥ 1e14 go to strconv.
func appendFixed4(buf []byte, v float64) []byte {
	if !(math.Abs(v) < 1e14) {
		return strconv.AppendFloat(buf, v, 'f', 4, 64)
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	mant, e := b&(1<<52-1), int(b>>52&0x7ff)
	if e == 0 {
		e = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// |v| = mant · 2^-shift, and below 1e14 (< 2^47) shift ≥ 6, so
	// s ≥ 2. x < 2^53 · 625 < 2^63 is exact.
	x, s := mant*625, uint(1023+52-e)-4
	var n uint64 // round(|v|·10⁴) ≤ 1e18
	if s < 64 {
		n = x >> s
		rest, half := x&(1<<s-1), uint64(1)<<(s-1)
		if rest > half || rest == half && n&1 == 1 {
			n++
		}
	} // else x/2^s < 2^63/2^64 is below one half: n = 0
	buf = strconv.AppendUint(buf, n/1e4, 10)
	frac := n % 1e4
	return append(buf, '.', byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// Walk replays the full schedule of a freshly compiled sampler up to
// (but excluding) duration, calling fn for every message in per-device
// order. It is the pure-arithmetic twin of a live profiled run: same
// profile, seed, device budget and duration produce the identical
// message set at any -speed, because there is no clock here at all.
//
//dbox:allow deadcode -- the swarm and core tests use it as the profile oracle
func Walk(p *Profile, devices int, seed int64, duration time.Duration, fn func(device int, at time.Duration, payload []byte)) error {
	s, err := Compile(p, devices, seed)
	if err != nil {
		return err
	}
	for d := 0; d < s.Devices(); d++ {
		for {
			at, payload := s.NextFire(d)
			if at >= duration {
				break
			}
			fn(d, at, payload)
		}
	}
	return nil
}

// Digest chains the full schedule into one SHA-256 hex digest: each
// device's (offset, topic, payload) stream hashes into a per-device
// chain, and the chains fold together in device order — so the digest
// is independent of worker interleaving and of the clock that paces a
// live run. It returns the digest and the total message count.
func Digest(p *Profile, devices int, seed int64, duration time.Duration, prefix string) (string, int64, error) {
	s, err := Compile(p, devices, seed)
	if err != nil {
		return "", 0, err
	}
	if prefix == "" {
		prefix = "swarm"
	}
	var total int64
	fold := sha256.New()
	var nanos [8]byte
	for d := 0; d < s.Devices(); d++ {
		chain := sha256.New()
		topic := s.DeviceTopic(prefix, d)
		for {
			at, payload := s.NextFire(d)
			if at >= duration {
				break
			}
			binary.BigEndian.PutUint64(nanos[:], uint64(at))
			chain.Write(nanos[:])
			chain.Write([]byte(topic))
			chain.Write(payload)
			total++
		}
		fold.Write(chain.Sum(nil))
	}
	return hex.EncodeToString(fold.Sum(nil)), total, nil
}

// ExpectedCounts walks the schedule and tallies messages per
// population kind — the oracle the capture round-trip acceptance
// compares live per-topic-class counts against.
func ExpectedCounts(p *Profile, devices int, seed int64, duration time.Duration) (map[string]int64, error) {
	s, err := Compile(p, devices, seed)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for d := 0; d < s.Devices(); d++ {
		kind := s.Kind(d)
		for {
			at, _ := s.NextFire(d)
			if at >= duration {
				break
			}
			out[kind]++
		}
	}
	return out, nil
}
