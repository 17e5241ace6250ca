package model

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/yamlite"
)

// ParseDoc decodes a single YAML model document.
func ParseDoc(data []byte) (Doc, error) {
	v, err := yamlite.Decode(data)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return Doc{}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("model: document is %T, want mapping", v)
	}
	return Doc(m), nil
}

func lampDoc() Doc {
	d := Doc{}
	d.SetMeta(Meta{Type: "Lamp", Version: "v1", Name: "L1", Managed: true})
	d.Set("power", map[string]any{"intent": "on", "status": "on"})
	d.Set("intensity", map[string]any{"intent": 0.2, "status": 0.4})
	return d
}

func TestMetaRoundTrip(t *testing.T) {
	d := Doc{}
	in := Meta{
		Type: "Room", Version: "v2", Name: "MeetingRoom", Managed: true,
		Attach: []string{"L1", "O1"},
		Config: map[string]any{"interval_ms": int64(100)},
	}
	d.SetMeta(in)
	out, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Version != in.Version || out.Name != in.Name || out.Managed != in.Managed {
		t.Errorf("meta mismatch: %+v vs %+v", out, in)
	}
	if !reflect.DeepEqual(out.Attach, in.Attach) {
		t.Errorf("attach = %v", out.Attach)
	}
	if out.Config["interval_ms"] != int64(100) {
		t.Errorf("config = %v", out.Config)
	}
}

func TestMetaErrors(t *testing.T) {
	if _, err := (Doc{}).Meta(); err == nil {
		t.Error("missing meta should error")
	}
	d := Doc{"meta": map[string]any{"name": "x"}}
	if _, err := d.Meta(); err == nil {
		t.Error("missing type should error")
	}
	d = Doc{"meta": map[string]any{"type": "Lamp"}}
	if _, err := d.Meta(); err == nil {
		t.Error("missing name should error")
	}
}

func TestGetSetDottedPaths(t *testing.T) {
	d := lampDoc()
	if v, ok := d.Get("power.intent"); !ok || v != "on" {
		t.Errorf("power.intent = %v, %v", v, ok)
	}
	if v, ok := d.Get("intensity.status"); !ok || v != 0.4 {
		t.Errorf("intensity.status = %v, %v", v, ok)
	}
	if _, ok := d.Get("power.unknown"); ok {
		t.Error("nonexistent path should report !ok")
	}
	if _, ok := d.Get("power.intent.too.deep"); ok {
		t.Error("path through scalar should report !ok")
	}
	d.Set("a.b.c", 7)
	if v, _ := d.Get("a.b.c"); v != int64(7) {
		t.Errorf("a.b.c = %v (want normalized int64)", v)
	}
	if !d.Delete("a.b.c") {
		t.Error("delete existing path should return true")
	}
	if d.Delete("a.b.c") {
		t.Error("delete missing path should return false")
	}
}

func TestIntentStatusHelpers(t *testing.T) {
	d := NewDraft(lampDoc())
	d.SetIntent("power", "off")
	if v, _ := d.Intent("power"); v != "off" {
		t.Errorf("intent = %v", v)
	}
	if v, _ := d.Status("power"); v != "on" {
		t.Errorf("status should be untouched, got %v", v)
	}
	d.SetStatus("power", "off")
	if v, _ := d.Status("power"); v != "off" {
		t.Errorf("status = %v", v)
	}
}

func TestTypedGetters(t *testing.T) {
	d := Doc{"s": "x", "b": true, "i": int64(3), "f": 2.5, "fi": float64(4)}
	if d.GetString("s") != "x" || d.GetString("missing") != "" || d.GetString("i") != "" {
		t.Error("GetString misbehaves")
	}
	if !d.GetBool("b") || d.GetBool("s") {
		t.Error("GetBool misbehaves")
	}
	if n, ok := d.GetInt("i"); !ok || n != 3 {
		t.Error("GetInt int64")
	}
	if n, ok := d.GetInt("fi"); !ok || n != 4 {
		t.Error("GetInt float64 conversion")
	}
	if _, ok := d.GetInt("s"); ok {
		t.Error("GetInt on string should fail")
	}
	if f, ok := d.GetFloat("f"); !ok || f != 2.5 {
		t.Error("GetFloat")
	}
	if f, ok := d.GetFloat("i"); !ok || f != 3 {
		t.Error("GetFloat int conversion")
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	d := lampDoc()
	c := d.DeepCopy()
	c.Set("power.status", "off")
	c.Set("meta.name", "L2")
	if v, _ := d.Get("power.status"); v != "on" {
		t.Error("mutating copy changed original nested map")
	}
	if d.Name() != "L1" {
		t.Error("mutating copy changed original meta")
	}
}

func TestMergeSemantics(t *testing.T) {
	d := NewDraft(lampDoc())
	d.Merge(map[string]any{
		"power":     map[string]any{"intent": "off"},
		"new_field": int64(1),
		"intensity": nil, // deletion
	})
	if v, _ := d.Get("power.intent"); v != "off" {
		t.Errorf("merge should set nested, got %v", v)
	}
	if v, _ := d.Get("power.status"); v != "on" {
		t.Errorf("merge should preserve sibling, got %v", v)
	}
	if _, ok := d.Get("intensity"); ok {
		t.Error("nil patch value should delete the key")
	}
	if v, _ := d.Get("new_field"); v != int64(1) {
		t.Errorf("new_field = %v", v)
	}
}

func TestMergeCopiesPatch(t *testing.T) {
	d := NewDraft(Doc{})
	inner := map[string]any{"a": int64(1)}
	d.Merge(map[string]any{"nested": inner})
	inner["a"] = int64(99)
	if v, _ := d.Get("nested.a"); v != int64(1) {
		t.Errorf("merge must deep-copy patch values, got %v", v)
	}
}

func TestEqualNumericTolerance(t *testing.T) {
	a := Doc{"x": int64(2)}
	b := Doc{"x": float64(2)}
	if !Equal(a, b) {
		t.Error("2 (int) and 2.0 (float) should compare equal")
	}
	if Equal(Doc{"x": int64(2)}, Doc{"x": int64(3)}) {
		t.Error("different values equal")
	}
	if Equal(Doc{"x": int64(2)}, Doc{"x": int64(2), "y": int64(1)}) {
		t.Error("extra key should break equality")
	}
}

func TestDiffAndApplyChanges(t *testing.T) {
	old := lampDoc()
	new := old.DeepCopy()
	new.Set("power.status", "off")
	new.Set("brightness", 0.7)
	new.Delete("intensity")

	changes := Diff(old, new)
	if len(changes) != 3 {
		t.Fatalf("got %d changes: %v", len(changes), changes)
	}
	byPath := map[string]Change{}
	for _, c := range changes {
		byPath[c.Path] = c
	}
	if c := byPath["power.status"]; c.Op != OpSet || c.Old != "on" || c.New != "off" {
		t.Errorf("power.status change = %+v", c)
	}
	if c := byPath["brightness"]; c.Op != OpSet || c.New != 0.7 {
		t.Errorf("brightness change = %+v", c)
	}
	if c := byPath["intensity"]; c.Op != OpDelete {
		t.Errorf("intensity change = %+v", c)
	}

	replayed := old.DeepCopy()
	replayed.ApplyChanges(changes)
	if !Equal(replayed, new) {
		t.Errorf("ApplyChanges(Diff(a,b)) != b:\n%v\nvs\n%v", replayed, new)
	}
}

func TestDiffDeterministicOrder(t *testing.T) {
	old := Doc{}
	new := Doc{"b": int64(1), "a": int64(2), "c": map[string]any{"z": int64(1), "y": int64(2)}}
	c1 := Diff(old, new)
	c2 := Diff(old, new)
	if !reflect.DeepEqual(c1, c2) {
		t.Error("diff not deterministic")
	}
	for i := 1; i < len(c1); i++ {
		if c1[i-1].Path >= c1[i].Path {
			t.Errorf("paths not sorted: %v", c1)
		}
	}
}

func TestDiffNoChanges(t *testing.T) {
	d := lampDoc()
	if c := Diff(d, d.DeepCopy()); len(c) != 0 {
		t.Errorf("diff of identical docs = %v", c)
	}
}

func TestPathsUnder(t *testing.T) {
	changes := []Change{
		{Path: "power.status"},
		{Path: "power.intent"},
		{Path: "powerful"},
		{Path: "power"},
	}
	got := PathsUnder(changes, "power")
	if len(got) != 3 {
		t.Errorf("PathsUnder = %v", got)
	}
}

func TestChangeString(t *testing.T) {
	set := Change{Op: OpSet, Path: "a.b", New: 5}
	del := Change{Op: OpDelete, Path: "a.b", Old: 4}
	if set.String() == "" || del.String() == "" {
		t.Error("Change.String should be non-empty")
	}
}

func TestParseDocEncode(t *testing.T) {
	src := `meta:
  managed: true
  name: L1
  type: Lamp
power:
  intent: "on"
  status: "off"
`
	d, err := ParseDoc([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "L1" || d.Type() != "Lamp" || !d.Managed() {
		t.Errorf("parsed doc wrong: %v", d)
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDoc(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, back) {
		t.Errorf("encode/parse round trip failed:\n%s", enc)
	}
}

func TestAttachAccessor(t *testing.T) {
	d := Doc{}
	d.SetMeta(Meta{Type: "Room", Name: "R", Attach: []string{"L1", "O1"}})
	if got := d.Attach(); !reflect.DeepEqual(got, []string{"L1", "O1"}) {
		t.Errorf("attach = %v", got)
	}
	// Mutating the returned slice must not affect the doc.
	d.Attach()[0] = "X"
	if d.Attach()[0] != "L1" {
		t.Error("Attach must return a copy")
	}
}

// The path walk's corner cases: an empty segment is the key "", a
// trailing dot ends in that key, and Set through a non-map value
// replaces it. Each step starts from the same document.
func TestPathWalkEdgeCases(t *testing.T) {
	base := func() Doc {
		return Doc{
			"a":  map[string]any{"b": map[string]any{"c": int64(1)}, "": "blank-in-a", "s": "scalar"},
			"":   map[string]any{"x": "under-blank"},
			"s":  "top-scalar",
			"l":  []any{int64(1)},
			"nm": map[string]any{},
		}
	}
	gets := []struct {
		path string
		want any
		ok   bool
	}{
		{"a.b.c", int64(1), true},
		{"a.b", map[string]any{"c": int64(1)}, true},
		{"a.", "blank-in-a", true},
		{".x", "under-blank", true},
		{".", nil, false},
		{"a..b", nil, false},
		{"a.b.", nil, false},
		{"a.b.c.", nil, false},
		{"a.b.c.d", nil, false},
		{"s.x", nil, false},
		{"l.0", nil, false},
		{"nm", map[string]any{}, true},
		{"nm.", nil, false},
		{"missing", nil, false},
		{"missing.deeper", nil, false},
	}
	for _, tc := range gets {
		got, ok := base().Get(tc.path)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Get(%q) = %v, %v; want %v, %v", tc.path, got, ok, tc.want, tc.ok)
		}
	}
	if got, ok := base().Get(""); !ok || !reflect.DeepEqual(got, map[string]any(base())) {
		t.Errorf(`Get("") = %v, %v; want the document itself`, got, ok)
	}
	d := base()
	if n := testing.AllocsPerRun(100, func() { d.Get("a.b.c") }); n != 0 {
		t.Errorf("Get of an existing three-level path allocates %v times", n)
	}

	sets := []struct {
		path string
		want func(Doc) // the same edit, written out on the raw maps
	}{
		{"a.b.c", func(d Doc) { d["a"].(map[string]any)["b"].(map[string]any)["c"] = "v" }},
		{"a.b", func(d Doc) { d["a"].(map[string]any)["b"] = "v" }},
		{"a.", func(d Doc) { d["a"].(map[string]any)[""] = "v" }},
		{"", func(d Doc) { d[""] = "v" }},
		{".", func(d Doc) { d[""].(map[string]any)[""] = "v" }},
		{".y", func(d Doc) { d[""].(map[string]any)["y"] = "v" }},
		{"a..z", func(d Doc) { d["a"].(map[string]any)[""] = map[string]any{"z": "v"} }},
		{"s.x", func(d Doc) { d["s"] = map[string]any{"x": "v"} }},
		{"a.s.x.y", func(d Doc) { d["a"].(map[string]any)["s"] = map[string]any{"x": map[string]any{"y": "v"}} }},
		{"l.0", func(d Doc) { d["l"] = map[string]any{"0": "v"} }},
		{"new.", func(d Doc) { d["new"] = map[string]any{"": "v"} }},
		{"nm.k", func(d Doc) { d["nm"].(map[string]any)["k"] = "v" }},
	}
	for _, tc := range sets {
		got, want := base(), base()
		got.Set(tc.path, "v")
		tc.want(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Set(%q):\n got %v\nwant %v", tc.path, got, want)
		}
	}

	deletes := []struct {
		path string
		ok   bool
		want func(Doc)
	}{
		{"a.b.c", true, func(d Doc) { delete(d["a"].(map[string]any)["b"].(map[string]any), "c") }},
		{"a.b", true, func(d Doc) { delete(d["a"].(map[string]any), "b") }},
		{"a.", true, func(d Doc) { delete(d["a"].(map[string]any), "") }},
		{"", true, func(d Doc) { delete(d, "") }},
		{".x", true, func(d Doc) { delete(d[""].(map[string]any), "x") }},
		{".", false, func(Doc) {}},
		{"a.b.", false, func(Doc) {}},
		{"a.b.c.", false, func(Doc) {}},
		{"s.x", false, func(Doc) {}},
		{"l.0", false, func(Doc) {}},
		{"missing.deeper", false, func(Doc) {}},
	}
	for _, tc := range deletes {
		got, want := base(), base()
		ok := got.Delete(tc.path)
		tc.want(want)
		if ok != tc.ok || !reflect.DeepEqual(got, want) {
			t.Errorf("Delete(%q) = %v:\n got %v\nwant %v", tc.path, ok, got, want)
		}
	}
}
