package iac

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/profile"
)

func mkModel(typ, name string, attach ...string) model.Doc {
	d := model.Doc{}
	d.SetMeta(model.Meta{Type: typ, Version: "v1", Name: name, Managed: true, Attach: attach})
	return d
}

func smartBuildingSetup() *Setup {
	return &Setup{
		Name: "smartbuilding",
		Kinds: map[string]string{
			"Occupancy": "v1",
			"Lamp":      "v1",
			"Room":      "v2",
			"Building":  "v3",
		},
		Models: []model.Doc{
			mkModel("Occupancy", "O1"),
			mkModel("Lamp", "L1"),
			mkModel("Occupancy", "O2"),
			mkModel("Room", "MeetingRoom", "L1", "O1"),
			mkModel("Room", "Kitchen", "O2"),
			mkModel("Building", "ConfCenter", "MeetingRoom", "Kitchen"),
		},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	s := smartBuildingSetup()
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if back.Name != s.Name {
		t.Errorf("name = %q", back.Name)
	}
	if !reflect.DeepEqual(back.Kinds, s.Kinds) {
		t.Errorf("kinds = %v", back.Kinds)
	}
	if len(back.Models) != len(s.Models) {
		t.Fatalf("models = %d", len(back.Models))
	}
	byName := map[string]model.Doc{}
	for _, m := range back.Models {
		byName[m.Name()] = m
	}
	if got := byName["ConfCenter"].Attach(); !reflect.DeepEqual(got, []string{"MeetingRoom", "Kitchen"}) {
		t.Errorf("ConfCenter attach = %v", got)
	}
}

func TestMarshalValidates(t *testing.T) {
	s := smartBuildingSetup()
	s.Name = ""
	if _, err := Marshal(s); err == nil {
		t.Error("empty name accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"no header":     "- 1\n- 2\n",
		"no setup name": "digibox: v1\n",
		"kind no ver":   "setup: s\nkinds:\n  Lamp:\n",
		"non-model doc": "setup: s\nkinds: {}\n---\n- a\n",
	}
	for name, src := range cases {
		if _, err := Unmarshal([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateDuplicateNames(t *testing.T) {
	s := &Setup{Name: "x", Models: []model.Doc{
		mkModel("Lamp", "L1"),
		mkModel("Fan", "L1"),
	}}
	if err := Validate(s); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateDanglingAttach(t *testing.T) {
	s := &Setup{Name: "x", Models: []model.Doc{
		mkModel("Room", "R", "Ghost"),
	}}
	if err := Validate(s); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateMissingKindRef(t *testing.T) {
	s := &Setup{
		Name:   "x",
		Kinds:  map[string]string{"Lamp": "v1"},
		Models: []model.Doc{mkModel("Fan", "F1")},
	}
	if err := Validate(s); err == nil || !strings.Contains(err.Error(), "kind reference") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	s := &Setup{Name: "x", Models: []model.Doc{
		mkModel("Room", "A", "B"),
		mkModel("Room", "B", "C"),
		mkModel("Room", "C", "A"),
	}}
	if err := Validate(s); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateModelWithoutMeta(t *testing.T) {
	s := &Setup{Name: "x", Models: []model.Doc{{"no": "meta"}}}
	if err := Validate(s); err == nil {
		t.Error("model without meta accepted")
	}
}

func TestCreationOrderChildrenFirst(t *testing.T) {
	s := smartBuildingSetup()
	order := CreationOrder(s)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for parent, children := range map[string][]string{
		"MeetingRoom": {"L1", "O1"},
		"Kitchen":     {"O2"},
		"ConfCenter":  {"MeetingRoom", "Kitchen"},
	} {
		for _, c := range children {
			if pos[c] > pos[parent] {
				t.Errorf("%s created after %s: %v", c, parent, order)
			}
		}
	}
}

func TestSetupWithoutKindsSkipsKindCheck(t *testing.T) {
	// Kinds == nil means "types resolved locally" (a setup sketched by
	// hand before any repo commit) and must not fail validation.
	s := &Setup{Name: "x", Models: []model.Doc{mkModel("Lamp", "L1")}}
	if err := Validate(s); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestSwarmSectionRoundTrip(t *testing.T) {
	s := smartBuildingSetup()
	s.Swarm = &SwarmConfig{Shards: 4}
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if back.Swarm == nil || back.Swarm.Shards != 4 {
		t.Fatalf("swarm section = %+v, want shards 4", back.Swarm)
	}

	// No section stays absent.
	plain, err := Marshal(smartBuildingSetup())
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Unmarshal(plain); err != nil || back.Swarm != nil {
		t.Fatalf("swarm = %+v, err %v; want absent", back.Swarm, err)
	}
}

func TestSwarmSectionValidates(t *testing.T) {
	s := smartBuildingSetup()
	s.Swarm = &SwarmConfig{Shards: 0}
	if _, err := Marshal(s); err == nil || !strings.Contains(err.Error(), "swarm.shards") {
		t.Fatalf("zero shards accepted: %v", err)
	}
	if _, err := Parse([]byte("setup: t\nswarm:\n  shards: nope\n")); err == nil {
		t.Fatal("non-numeric shards accepted")
	}
}

func TestCtlSectionRoundTrip(t *testing.T) {
	s := smartBuildingSetup()
	s.Ctl = &CtlConfig{Listen: "127.0.0.1:7825"}
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if back.Ctl == nil || back.Ctl.Listen != "127.0.0.1:7825" {
		t.Fatalf("ctl section = %+v, want listen 127.0.0.1:7825", back.Ctl)
	}

	// No section stays absent, and an empty listen fails validation.
	plain, err := Marshal(smartBuildingSetup())
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Unmarshal(plain); err != nil || back.Ctl != nil {
		t.Fatalf("ctl = %+v, err %v; want absent", back.Ctl, err)
	}
	empty := smartBuildingSetup()
	empty.Ctl = &CtlConfig{}
	if _, err := Marshal(empty); err == nil {
		t.Fatal("empty ctl.listen marshalled, want validation error")
	}
}

func TestProfileSectionRoundTrip(t *testing.T) {
	s := smartBuildingSetup()
	s.Profile = &profile.Profile{
		Name: "city",
		Seed: 7,
		Populations: []profile.Population{
			{Kind: "thermostat", Count: 4,
				Cadence: profile.Cadence{Dist: profile.DistPoisson, Mean: 200 * time.Millisecond},
				Fields:  []profile.Field{{Name: "temp_c", Gen: profile.GenSine, Min: 18, Max: 26, Period: time.Minute}}},
			{Kind: "meter", Count: 2,
				Cadence: profile.Cadence{Dist: profile.DistFixed, Mean: 100 * time.Millisecond}},
		},
	}
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if back.Profile == nil || back.Profile.Name != "city" || back.Profile.Seed != 7 {
		t.Fatalf("profile section = %+v, want name city seed 7", back.Profile)
	}
	if n := len(back.Profile.Populations); n != 2 {
		t.Fatalf("populations = %d, want 2", n)
	}
	if got := back.Profile.Populations[0]; got.Kind != "thermostat" ||
		got.Cadence.Dist != profile.DistPoisson || got.Cadence.Mean != 200*time.Millisecond {
		t.Fatalf("population 0 = %+v", got)
	}

	// No section stays absent, and an invalid profile fails validation.
	plain, err := Marshal(smartBuildingSetup())
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Unmarshal(plain); err != nil || back.Profile != nil {
		t.Fatalf("profile = %+v, err %v; want absent", back.Profile, err)
	}
	bad := smartBuildingSetup()
	bad.Profile = &profile.Profile{Name: "bad", Populations: []profile.Population{
		{Kind: "x", Count: 1, Cadence: profile.Cadence{Dist: "weibull", Mean: time.Second}},
	}}
	if _, err := Marshal(bad); err == nil {
		t.Fatal("unknown cadence dist marshalled, want validation error")
	}
	if _, err := Parse([]byte("setup: t\nprofile: notamap\n")); err == nil {
		t.Fatal("non-mapping profile section accepted")
	}
}
