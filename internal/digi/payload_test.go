package digi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

// FuzzStatusPayload holds the status encoder to json.Marshal of the
// same map: the same bytes, or an error from both.
func FuzzStatusPayload(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e-6, 1e20, 1e21, -1e21, 123456789.125,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("triggered", "on", int64(0), x, true, uint8(0))
	}
	for _, s := range []string{"", "plain", "a<b", "a>b", "a&b", `<a href="x">&amp;</a>`, `quote " and \ back`, "tab\tnl\ncr\r\x00\x1f", "del\x7f",
		"line\u2028sep\u2029", "bad \xff\xfe utf8", "é ü 中", "\x80"} {
		f.Add(s, s, int64(-7), 21.5, false, uint8(0xff))
	}
	f.Add("power", "off", int64(math.MinInt64), 0.1, true, uint8(1))
	f.Add("i", "x", int64(math.MaxInt64), 1e300, false, uint8(6))
	f.Fuzz(func(t *testing.T, key, s string, i int64, x float64, b bool, shape uint8) {
		m := map[string]any{key: s, "i": i, "x": x, "b": b}
		if shape&1 != 0 {
			m["nested"] = map[string]any{s: x, "list": []any{s, i, x, b, nil}, "empty": map[string]any{}}
		}
		if shape&2 != 0 {
			m[s] = []any{map[string]any{key: i}, -x, []any{}}
		}
		if shape&4 != 0 {
			m["int"], m["none"], m["strs"] = int(i), nil, []string{s, key}
		}
		want, werr := json.Marshal(m)
		var fs []field
		for k, v := range m {
			fs = append(fs, field{k, v})
		}
		got, err := appendObject([]byte("prefix"), fs)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%#v: encoder error %v, json.Marshal error %v", m, err, werr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%#v:\nencoder      %s\njson.Marshal %s", m, got, want)
		}
	})
}

// PublishFields logs the payload json.Marshal writes for a map of the
// fields named, skipping absent and repeated names.
func TestPublishPayloadsMatchJSONMarshal(t *testing.T) {
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry()}
	c := NewTestCtx("X1", "Thing", rt, rng.New(1, 0), context.Background())
	doc := model.Doc{"power": map[string]any{"intent": "on", "status": "off"}, "level": 0.5, "on": true, "<tag>": "a&b"}
	publish := [][]string{{"missing"}, {"power", "missing", "on", "<tag>", "level", "on"}}
	for _, names := range publish {
		if err := c.PublishFields(model.NewDraft(doc), names...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PublishFields(model.NewDraft(model.Doc{"x": math.Inf(-1)}), "x"); err == nil {
		t.Error("an infinite field was published")
	}
	recs := rt.Log.Records()
	if len(recs) != len(publish) {
		t.Fatalf("%d records, want %d: %v", len(recs), len(publish), recs)
	}
	for i, r := range recs {
		m := map[string]any{}
		for _, name := range publish[i] {
			if v, ok := doc[name]; ok {
				m[name] = v
			}
		}
		if want, _ := json.Marshal(m); r.Payload != string(want) {
			t.Errorf("payload %d = %s, want %s", i, r.Payload, want)
		}
	}
}
