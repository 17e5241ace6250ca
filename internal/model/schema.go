package model

import (
	"fmt"
	"sort"
	"strings"
)

// FieldKind is the declared type of a schema field.
type FieldKind string

const (
	KindString FieldKind = "string"
	KindBool   FieldKind = "bool"
	KindInt    FieldKind = "int"
	KindFloat  FieldKind = "float"
	// KindIntent declares an intent/status pair: the field's document
	// value is a map {intent: T, status: T} where T is ElemKind. Lamp
	// power (Fig. 3) is an intent field of element kind string.
	KindIntent FieldKind = "intent"
)

// FieldSpec declares one model field.
type FieldSpec struct {
	Kind     FieldKind
	ElemKind FieldKind // element kind for KindIntent fields
	Enum     []string  // allowed values for string-kinded fields
	Min, Max *float64  // numeric bounds, inclusive
	Default  any       // initial value (for intent fields, both halves)
	Doc      string    // one-line description for docs/CLI help
}

// Schema declares the model shape of a mock or scene kind. Schemas are
// what "dbox commit <type>" registers and what validation runs against
// when a model is created or edited (§3.2).
type Schema struct {
	Type    string // kind name, e.g. "Occupancy"
	Version string // kind version, e.g. "v1"
	Scene   bool   // true for scene kinds (Room, Building, ...)
	Fields  map[string]FieldSpec
	Doc     string // one-line description of the kind
}

// Bound returns a *float64 for use as a FieldSpec bound.
func Bound(v float64) *float64 { return &v }

// New instantiates a model document of this kind with all defaults
// applied and the given instance name.
func (s *Schema) New(name string) Doc {
	d := Doc{}
	d.SetMeta(Meta{Type: s.Type, Version: s.Version, Name: name, Managed: true})
	for field, spec := range s.Fields {
		switch spec.Kind {
		case KindIntent:
			d.Set(field, map[string]any{
				"intent": normalize(spec.Default),
				"status": normalize(spec.Default),
			})
		default:
			d.Set(field, normalize(spec.Default))
		}
	}
	return d
}

// Validate checks a document, or a draft as it stands, against the
// schema. Unknown top-level fields are rejected so typos in configs
// surface early; meta is validated structurally.
func (s *Schema) Validate(r Readable) error {
	d := r.view()
	meta, err := d.Meta()
	if err != nil {
		return err
	}
	if meta.Type != s.Type {
		return fmt.Errorf("model: document type %q does not match schema %q", meta.Type, s.Type)
	}
	var errs []string
	for key, v := range d {
		if key == metaKey {
			continue
		}
		spec, ok := s.Fields[key]
		if !ok {
			errs = append(errs, fmt.Sprintf("unknown field %q", key))
			continue
		}
		if err := spec.validate(key, v); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for key, spec := range s.Fields {
		if _, ok := d[key]; !ok && spec.Default == nil && spec.Kind != KindIntent {
			// Fields without defaults are required.
			errs = append(errs, fmt.Sprintf("missing field %q", key))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("model: %s %s invalid: %s", s.Type, meta.Name, strings.Join(errs, "; "))
	}
	return nil
}

func (f FieldSpec) validate(path string, v any) error {
	switch f.Kind {
	case KindIntent:
		m, ok := asMap(v)
		if !ok {
			return fmt.Errorf("field %q: want {intent, status} map, got %T", path, v)
		}
		elem := FieldSpec{Kind: f.ElemKind, Enum: f.Enum, Min: f.Min, Max: f.Max}
		for _, half := range []string{"intent", "status"} {
			hv, ok := m[half]
			if !ok {
				return fmt.Errorf("field %q: missing %s", path, half)
			}
			if err := elem.validate(path+"."+half, hv); err != nil {
				return err
			}
		}
		for k := range m {
			if k != "intent" && k != "status" {
				return fmt.Errorf("field %q: unexpected key %q", path, k)
			}
		}
		return nil
	case KindString:
		sv, ok := v.(string)
		if !ok {
			return fmt.Errorf("field %q: want string, got %T", path, v)
		}
		if len(f.Enum) > 0 {
			for _, e := range f.Enum {
				if sv == e {
					return nil
				}
			}
			return fmt.Errorf("field %q: %q not in %v", path, sv, f.Enum)
		}
		return nil
	case KindBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("field %q: want bool, got %T", path, v)
		}
		return nil
	case KindInt:
		n, ok := v.(int64)
		if !ok {
			return fmt.Errorf("field %q: want int, got %T", path, v)
		}
		return f.checkBounds(path, float64(n))
	case KindFloat:
		fv, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("field %q: want float, got %T", path, v)
		}
		return f.checkBounds(path, fv)
	default:
		return fmt.Errorf("field %q: unknown kind %q", path, f.Kind)
	}
}

func (f FieldSpec) checkBounds(path string, v float64) error {
	if f.Min != nil && v < *f.Min {
		return fmt.Errorf("field %q: %v below minimum %v", path, v, *f.Min)
	}
	if f.Max != nil && v > *f.Max {
		return fmt.Errorf("field %q: %v above maximum %v", path, v, *f.Max)
	}
	return nil
}
