// Package model implements the Digibox document model.
//
// Every mock and scene is described by a model: a document of key-value
// pairs holding the entity's status and its desired status (the
// "intent"), plus a "meta" section with the type, version, name,
// managed flag, attach list, and event-generation configuration — see
// Fig. 3 of the paper. The package provides the document type with
// dotted-path access and deep merging, typed schemas with validation
// and defaulting, change diffing for the trace log, and a concurrent
// store with generations and watch streams that the digi runtime and
// the REST gateway are built on.
package model

import (
	"fmt"
	"strings"

	"repro/internal/yamlite"
)

// Doc is a model document. The concrete value domain is the yamlite
// dynamic domain: map[string]any, []any, string, int64, float64, bool,
// and nil. Doc values are not safe for concurrent mutation. The Store
// hands out deep copies (Get), its committed documents read-only
// (View, watch updates), and a Draft of one to whoever edits it.
type Doc map[string]any

// Meta is the parsed "meta" section of a model (Fig. 3).
type Meta struct {
	Type    string // device or scene kind, e.g. "Occupancy", "Room"
	Version string // kind version, e.g. "v1"
	Name    string // instance name, e.g. "O1"
	// Managed reports whether the digi's own event generator drives the
	// model. A digi attached to a scene usually runs unmanaged: the
	// parent scene writes its correlated status instead (§3.1).
	Managed bool
	Attach  []string       // names of mocks/scenes attached to this scene
	Config  map[string]any // extra kind-specific config (interval, seed, ranges)
}

// Well-known meta keys.
const (
	metaKey     = "meta"
	metaType    = "type"
	metaVersion = "version"
	metaName    = "name"
	metaManaged = "managed"
	metaAttach  = "attach"
)

// Encode renders the document as YAML with deterministic key order.
func (d Doc) Encode() ([]byte, error) {
	return yamlite.Encode(map[string]any(d))
}

// Meta extracts and validates the document's meta section.
func (d Doc) Meta() (Meta, error) {
	raw, ok := d[metaKey].(map[string]any)
	if !ok {
		return Meta{}, fmt.Errorf("model: document has no meta section")
	}
	m := Meta{Config: map[string]any{}}
	for k, v := range raw {
		switch k {
		case metaType:
			m.Type, _ = v.(string)
		case metaVersion:
			m.Version, _ = v.(string)
		case metaName:
			m.Name, _ = v.(string)
		case metaManaged:
			m.Managed, _ = v.(bool)
		case metaAttach:
			seq, _ := v.([]any)
			for _, item := range seq {
				if s, ok := item.(string); ok {
					m.Attach = append(m.Attach, s)
				}
			}
		default:
			m.Config[k] = v
		}
	}
	if m.Type == "" {
		return Meta{}, fmt.Errorf("model: meta.type missing")
	}
	if m.Name == "" {
		return Meta{}, fmt.Errorf("model: meta.name missing")
	}
	return m, nil
}

// SetMeta writes the meta section, preserving unknown config keys
// already present in the document.
func (d Doc) SetMeta(m Meta) {
	raw, _ := d[metaKey].(map[string]any)
	if raw == nil {
		raw = map[string]any{}
		d[metaKey] = raw
	}
	writeMeta(raw, m)
}

// writeMeta writes m into the meta map raw; config values are copied.
func writeMeta(raw map[string]any, m Meta) {
	raw[metaType] = m.Type
	if m.Version != "" {
		raw[metaVersion] = m.Version
	}
	raw[metaName] = m.Name
	raw[metaManaged] = m.Managed
	att := make([]any, len(m.Attach))
	for i, a := range m.Attach {
		att[i] = a
	}
	raw[metaAttach] = att
	for k, v := range m.Config {
		raw[k] = normalize(copyValue(v))
	}
}

// Name returns meta.name, or "" if absent.
func (d Doc) Name() string {
	v, _ := d.Get("meta.name")
	s, _ := v.(string)
	return s
}

// Type returns meta.type, or "" if absent.
func (d Doc) Type() string {
	v, _ := d.Get("meta.type")
	s, _ := v.(string)
	return s
}

// Managed returns meta.managed (false if absent).
func (d Doc) Managed() bool {
	v, _ := d.Get("meta.managed")
	b, _ := v.(bool)
	return b
}

// Attach returns a copy of meta.attach.
func (d Doc) Attach() []string {
	v, _ := d.Get("meta.attach")
	seq, _ := v.([]any)
	out := make([]string, 0, len(seq))
	for _, item := range seq {
		if s, ok := item.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

// Get resolves a dotted path like "power.intent". It returns the value
// and whether the full path exists. An empty path returns the document
// itself.
func (d Doc) Get(path string) (any, bool) {
	if path == "" {
		return map[string]any(d), true
	}
	var cur any = map[string]any(d)
	for more := true; more; {
		var part string
		part, path, more = strings.Cut(path, ".")
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// GetString returns the string at path, or "" if absent or mistyped.
func (d Doc) GetString(path string) string {
	v, _ := d.Get(path)
	s, _ := v.(string)
	return s
}

// GetBool returns the bool at path, or false if absent or mistyped.
func (d Doc) GetBool(path string) bool {
	v, _ := d.Get(path)
	b, _ := v.(bool)
	return b
}

// GetInt returns the integer at path, converting from float64 when the
// source document spelled the value with a decimal point.
func (d Doc) GetInt(path string) (int64, bool) {
	v, ok := d.Get(path)
	if !ok {
		return 0, false
	}
	switch t := v.(type) {
	case int64:
		return t, true
	case int:
		return int64(t), true
	case float64:
		return int64(t), true
	}
	return 0, false
}

// GetFloat returns the float at path, converting from integer values.
func (d Doc) GetFloat(path string) (float64, bool) {
	v, ok := d.Get(path)
	if !ok {
		return 0, false
	}
	switch t := v.(type) {
	case float64:
		return t, true
	case int64:
		return float64(t), true
	case int:
		return float64(t), true
	}
	return 0, false
}

// Set writes a value at a dotted path, creating intermediate maps as
// needed. Setting through a non-map value replaces it.
func (d Doc) Set(path string, v any) {
	cur := map[string]any(d)
	for {
		part, rest, more := strings.Cut(path, ".")
		if !more {
			cur[part] = normalize(v)
			return
		}
		next, ok := cur[part].(map[string]any)
		if !ok {
			next = map[string]any{}
			cur[part] = next
		}
		cur, path = next, rest
	}
}

// Delete removes the value at a dotted path. It reports whether the
// path existed.
func (d Doc) Delete(path string) bool {
	cur := map[string]any(d)
	for {
		part, rest, more := strings.Cut(path, ".")
		if !more {
			_, ok := cur[part]
			delete(cur, part)
			return ok
		}
		next, ok := cur[part].(map[string]any)
		if !ok {
			return false
		}
		cur, path = next, rest
	}
}

// DeepCopy returns a structurally independent copy of the document.
func (d Doc) DeepCopy() Doc {
	return Doc(copyValue(map[string]any(d)).(map[string]any))
}

func copyValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, val := range t {
			out[k] = copyValue(val)
		}
		return out
	case Doc:
		return copyValue(map[string]any(t))
	case []any:
		out := make([]any, len(t))
		for i, val := range t {
			out[i] = copyValue(val)
		}
		return out
	default:
		return t
	}
}

func asMap(v any) (map[string]any, bool) {
	switch t := v.(type) {
	case map[string]any:
		return t, true
	case Doc:
		return map[string]any(t), true
	}
	return nil, false
}

// normalize converts convenience Go types (int, float32, []string,
// Doc) into the canonical dynamic domain so comparisons and encoding
// behave uniformly.
func normalize(v any) any {
	switch t := v.(type) {
	case int:
		return int64(t)
	case int32:
		return int64(t)
	case float32:
		return float64(t)
	case []string:
		out := make([]any, len(t))
		for i, s := range t {
			out[i] = s
		}
		return out
	case Doc:
		return map[string]any(t)
	case map[string]any:
		for k, val := range t {
			t[k] = normalize(val)
		}
		return t
	case []any:
		for i, val := range t {
			t[i] = normalize(val)
		}
		return t
	default:
		return v
	}
}

// Equal reports deep equality of two documents.
//
//dbox:allow deadcode -- the digi and scene tests compare documents with it
func Equal(a, b Doc) bool {
	return equalValue(map[string]any(a), map[string]any(b))
}

func equalValue(a, b any) bool {
	am, aok := asMap(a)
	bm, bok := asMap(b)
	if aok || bok {
		if !aok || !bok || len(am) != len(bm) {
			return false
		}
		for k, av := range am {
			bv, ok := bm[k]
			if !ok || !equalValue(av, bv) {
				return false
			}
		}
		return true
	}
	as, aok := a.([]any)
	bs, bok := b.([]any)
	if aok || bok {
		if !aok || !bok || len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !equalValue(as[i], bs[i]) {
				return false
			}
		}
		return true
	}
	return scalarEqual(a, b)
}

func scalarEqual(a, b any) bool {
	if a == b {
		return true
	}
	// int64 vs float64 spelling differences from hand-written configs.
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	return aok && bok && af == bf
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case int:
		return float64(t), true
	case float64:
		return t, true
	}
	return 0, false
}
