package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteText writes every family in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, then one sample
// line per child, histograms expanded into cumulative _bucket{le=...}
// series plus _sum and _count. Families and children are emitted in
// sorted order so output is diffable.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fs := range r.Snapshot().Families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fs.Name, fs.Help, fs.Name, fs.Kind); err != nil {
			return err
		}
		for _, m := range fs.Metrics {
			if err := writeTextMetric(w, fs, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTextMetric(w io.Writer, fs FamilySnapshot, m MetricSnapshot) error {
	if fs.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			fs.Name, labelBlock(fs.Labels, m.LabelValues, "", 0), formatValue(m.Value))
		return err
	}
	var cum uint64
	for i, n := range m.Buckets {
		cum += n
		le := "+Inf"
		if i < len(fs.Buckets) {
			le = formatValue(fs.Buckets[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			fs.Name, labelBlockLe(fs.Labels, m.LabelValues, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		fs.Name, labelBlock(fs.Labels, m.LabelValues, "", 0), formatValue(m.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		fs.Name, labelBlock(fs.Labels, m.LabelValues, "", 0), m.Count)
	return err
}

func labelBlockLe(names, vals []string, le string) string {
	return labelBlock(names, vals, le, 1)
}

// labelBlock renders {a="x",b="y"} (empty string when no labels);
// extraLe > 0 appends le="...".
func labelBlock(names, vals []string, le string, extraLe int) string {
	if len(names) == 0 && extraLe == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(vals[i]))
		sb.WriteByte('"')
	}
	if extraLe > 0 {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is a point-in-time copy of the whole registry, shaped for
// JSON (GET /ctl/metrics.json) and for dbox top. Histogram children
// carry precomputed p50/p99 so consumers don't reimplement
// interpolation.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Labels  []string         `json:"labels,omitempty"`
	Buckets []float64        `json:"buckets,omitempty"` // histogram upper bounds
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one child time series.
type MetricSnapshot struct {
	LabelValues []string `json:"labelValues,omitempty"`
	Value       float64  `json:"value,omitempty"` // counter/gauge
	// Histogram fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []uint64 `json:"bucketCounts,omitempty"` // per-bucket (not cumulative)
	P50     float64  `json:"p50,omitempty"`
	P99     float64  `json:"p99,omitempty"`
}

// Snapshot captures every family. Families and children are sorted by
// name / label tuple.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:    f.name,
			Help:    f.help,
			Kind:    f.kind,
			Labels:  append([]string(nil), f.labels...),
			Buckets: append([]float64(nil), f.bounds...),
		}
		// The family lock is held across the child sweep so the fn
		// pointers and child set are read consistently; the values
		// themselves are atomics.
		f.mu.Lock()
		kids := make([]*child, 0, len(f.kids))
		for _, c := range f.kids {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool {
			return strings.Join(kids[i].labelVals, "\x1f") < strings.Join(kids[j].labelVals, "\x1f")
		})
		for _, c := range kids {
			m := MetricSnapshot{LabelValues: append([]string(nil), c.labelVals...)}
			if f.kind == KindHistogram {
				m.Buckets = snapshotHist(c, f.bounds)
				m.Count = c.count.Load()
				m.Sum = math.Float64frombits(c.sumBits.Load())
				m.P50 = quantile(m.Buckets, f.bounds, 0.50)
				m.P99 = quantile(m.Buckets, f.bounds, 0.99)
			} else if c.fn != nil {
				m.Value = c.fn()
			} else {
				m.Value = math.Float64frombits(c.bits.Load())
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		f.mu.Unlock()
		out.Families = append(out.Families, fs)
	}
	return out
}

// Family returns the snapshot of one family by name (nil if absent).
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Label returns the metric's value for a named label, "" if absent.
func (m MetricSnapshot) Label(fs *FamilySnapshot, name string) string {
	for i, n := range fs.Labels {
		if n == name && i < len(m.LabelValues) {
			return m.LabelValues[i]
		}
	}
	return ""
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string            // sample name as written (may carry _bucket/_sum/_count)
	Labels map[string]string // nil when unlabelled
	Value  float64
}

// ParseText parses Prometheus text exposition into samples, returning
// them with the set of family names seen in # TYPE headers. It
// understands exactly the subset WriteText emits — enough for tests
// and dbox top to scrape a live daemon without a client library.
//
//dbox:allow deadcode -- ctl's metrics tests parse the exposition with it
func ParseText(text string) (samples []Sample, families []string, err error) {
	seen := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" && !seen[fields[2]] {
				seen[fields[2]] = true
				families = append(families, fields[2])
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fmt.Errorf("obs: parse line %d: no value separator", ln+1)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: parse line %d: %w", ln+1, err)
		}
		s := Sample{Name: line[:sp], Value: val}
		if i := strings.IndexByte(s.Name, '{'); i >= 0 {
			labelText := strings.TrimSuffix(s.Name[i+1:], "}")
			s.Name = s.Name[:i]
			s.Labels = map[string]string{}
			for _, pair := range splitLabelPairs(labelText) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					return nil, nil, fmt.Errorf("obs: parse line %d: bad label %q", ln+1, pair)
				}
				s.Labels[pair[:eq]] = unescapeLabel(strings.Trim(pair[eq+1:], `"`))
			}
		}
		samples = append(samples, s)
	}
	return samples, families, nil
}

// splitLabelPairs splits a="x",b="y" at commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var sb strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '"':
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, sb.String())
			sb.Reset()
			continue
		}
		sb.WriteRune(r)
	}
	if sb.Len() > 0 {
		out = append(out, sb.String())
	}
	return out
}

func unescapeLabel(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	v = strings.ReplaceAll(v, `\"`, `"`)
	v = strings.ReplaceAll(v, `\n`, "\n")
	return strings.ReplaceAll(v, `\\`, `\`)
}
