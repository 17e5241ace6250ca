package model

import (
	"strings"
	"testing"
)

func lampSchema() *Schema {
	return &Schema{
		Type: "Lamp", Version: "v1",
		Doc: "A dimmable smart lamp.",
		Fields: map[string]FieldSpec{
			"power": {Kind: KindIntent, ElemKind: KindString, Enum: []string{"on", "off"}, Default: "off"},
			"intensity": {Kind: KindIntent, ElemKind: KindFloat,
				Min: Bound(0), Max: Bound(1), Default: 0.0},
			"watts": {Kind: KindInt, Min: Bound(0), Max: Bound(200), Default: int64(9)},
			"label": {Kind: KindString, Default: ""},
			"dim":   {Kind: KindBool, Default: false},
		},
	}
}

func TestSchemaNewAppliesDefaults(t *testing.T) {
	s := lampSchema()
	d := s.New("L1")
	if d.Name() != "L1" || d.Type() != "Lamp" || !d.Managed() {
		t.Fatalf("bad meta: %v", d)
	}
	if v, _ := d.Get("power.intent"); v != "off" {
		t.Errorf("power.intent default = %v", v)
	}
	if v, _ := d.Get("intensity.status"); v != float64(0) {
		t.Errorf("intensity.status default = %v (%T)", v, v)
	}
	if v, _ := d.GetInt("watts"); v != 9 {
		t.Errorf("watts default = %v", v)
	}
	if err := s.Validate(d); err != nil {
		t.Errorf("freshly minted doc invalid: %v", err)
	}
}

func TestSchemaValidateRejects(t *testing.T) {
	s := lampSchema()
	cases := []struct {
		name   string
		mutate func(*Draft)
		want   string
	}{
		{"unknown field", func(d *Draft) { d.Set("bogus", 1) }, "unknown field"},
		{"enum violation", func(d *Draft) { d.SetStatus("power", "dim") }, "not in"},
		{"bounds", func(d *Draft) { d.SetIntent("intensity", 1.5) }, "above maximum"},
		{"below min", func(d *Draft) { d.Set("watts", int64(-1)) }, "below minimum"},
		{"wrong type", func(d *Draft) { d.Set("dim", "yes") }, "want bool"},
		{"intent not map", func(d *Draft) { d.Set("power", "on") }, "want {intent, status}"},
		{"intent missing half", func(d *Draft) { d.Delete("power.status") }, "missing status"},
		{"intent extra key", func(d *Draft) { d.Set("power.extra", 1) }, "unexpected key"},
	}
	for _, c := range cases {
		d := NewDraft(s.New("L1"))
		c.mutate(d)
		err := s.Validate(d)
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestSchemaValidateTypeMismatch(t *testing.T) {
	s := lampSchema()
	d := Doc{}
	d.SetMeta(Meta{Type: "Fan", Name: "F1"})
	if err := s.Validate(d); err == nil {
		t.Error("wrong meta.type should fail validation")
	}
}

func TestSchemaValidateMissingRequired(t *testing.T) {
	s := &Schema{
		Type: "Probe", Version: "v1",
		Fields: map[string]FieldSpec{
			"serial": {Kind: KindString}, // no default -> required
		},
	}
	d := Doc{}
	d.SetMeta(Meta{Type: "Probe", Name: "P1"})
	err := s.Validate(d)
	if err == nil || !strings.Contains(err.Error(), "missing field") {
		t.Errorf("err = %v", err)
	}
	d.Set("serial", "abc")
	if err := s.Validate(d); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
}

func TestSchemaFloatAcceptsIntSpelling(t *testing.T) {
	s := lampSchema()
	d := NewDraft(s.New("L1"))
	// A hand-written YAML file may spell 0.0 as 0 (decoded int64).
	d.SetIntent("intensity", int64(1))
	d.SetStatus("intensity", int64(0))
	if err := s.Validate(d); err != nil {
		t.Errorf("int spelling of float rejected: %v", err)
	}
}
