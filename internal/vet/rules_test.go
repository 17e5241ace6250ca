package vet_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/iac"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/vet"
)

// runSetup analyzes an already-parsed setup.
func runSetup(s *iac.Setup, kinds vet.KindSource) []vet.Diagnostic {
	return vet.Run(&vet.Context{Setup: s, File: s.Name, Kinds: kinds})
}

// setup builds a test setup whose header references every used type at
// v1, so V005 stays quiet unless a test withholds a reference.
func setup(models ...model.Doc) *iac.Setup {
	kinds := map[string]string{}
	for _, m := range models {
		if t := m.Type(); t != "" {
			kinds[t] = "v1"
		}
	}
	return &iac.Setup{Name: "t", Kinds: kinds, Models: models}
}

// exactIDs asserts the distinct rule IDs of the diagnostics are exactly
// the expected set.
func exactIDs(t *testing.T, diags []vet.Diagnostic, want ...string) {
	t.Helper()
	got := make([]string, 0, len(diags))
	for id := range ruleIDs(diags) {
		got = append(got, id)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rule IDs = %v, want %v\ndiagnostics:\n%s", got, want, vet.Text(diags))
	}
}

func TestDanglingAttach(t *testing.T) {
	bad := setup(mkdoc("Room", "room", map[string]any{"meta.attach": []any{"ghost"}}))
	exactIDs(t, runSetup(bad, nil), "V001")

	good := setup(
		mkdoc("Room", "room", map[string]any{"meta.attach": []any{"o1"}}),
		mkdoc("Occupancy", "o1", nil),
	)
	exactIDs(t, runSetup(good, nil))
}

func TestDuplicateAttach(t *testing.T) {
	bad := setup(
		mkdoc("Room", "room", map[string]any{"meta.attach": []any{"o1", "o1"}}),
		mkdoc("Occupancy", "o1", nil),
	)
	exactIDs(t, runSetup(bad, nil), "V002")

	// The same child under two DIFFERENT parents is legal (supplychain
	// attaches cargo sensors to both a truck and the cold-chain audit
	// scene) and must not fire.
	multiParent := setup(
		mkdoc("Scene", "top", map[string]any{"meta.attach": []any{"a", "b"}}),
		mkdoc("Scene", "a", map[string]any{"meta.attach": []any{"shared"}}),
		mkdoc("Scene", "b", map[string]any{"meta.attach": []any{"shared"}}),
		mkdoc("Occupancy", "shared", nil),
	)
	exactIDs(t, runSetup(multiParent, nil))
}

func TestAttachCycle(t *testing.T) {
	// Two scenes attaching each other. The cycle also leaves the pair
	// unreachable from any root, so the orphan warning fires alongside.
	bad := setup(
		mkdoc("Scene", "a", map[string]any{"meta.attach": []any{"b"}}),
		mkdoc("Scene", "b", map[string]any{"meta.attach": []any{"a"}}),
	)
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V003", "V004")
	if !vet.HasErrors(diags) {
		t.Error("cycle not error-severity")
	}

	chain := setup(
		mkdoc("Scene", "a", map[string]any{"meta.attach": []any{"b"}}),
		mkdoc("Scene", "b", map[string]any{"meta.attach": []any{"c"}}),
		mkdoc("Occupancy", "c", nil),
	)
	exactIDs(t, runSetup(chain, nil))
}

func TestOrphanModel(t *testing.T) {
	bad := setup(
		mkdoc("Room", "room", map[string]any{"meta.attach": []any{"o1"}}),
		mkdoc("Occupancy", "o1", nil),
		mkdoc("Occupancy", "stray", nil),
	)
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V004")
	if vet.HasErrors(diags) {
		t.Error("orphan should be a warning, not an error")
	}

	// Single-model setups have nothing to orphan.
	exactIDs(t, runSetup(setup(mkdoc("Occupancy", "solo", nil)), nil))
}

func TestMissingKindRef(t *testing.T) {
	bad := setup(mkdoc("Room", "room", nil))
	delete(bad.Kinds, "Room")
	bad.Kinds["Lamp"] = "v3" // referenced but unused: advisory
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V005")
	var sevs []vet.Severity
	for _, d := range diags {
		sevs = append(sevs, d.Severity)
	}
	sort.Slice(sevs, func(i, j int) bool { return sevs[i] < sevs[j] })
	if len(sevs) != 2 || sevs[0] != vet.Info || sevs[1] != vet.Error {
		t.Errorf("severities = %v (want one info for the unused ref, one error for the missing one)", sevs)
	}

	exactIDs(t, runSetup(setup(mkdoc("Room", "room", nil)), nil))
}

// lampSchema is a minimal committed kind document for V006/V007 tests.
func lampSchema(t *testing.T) []byte {
	t.Helper()
	data, err := model.EncodeSchema(&model.Schema{
		Type: "Lamp", Version: "v1",
		Fields: map[string]model.FieldSpec{
			"brightness": {Kind: model.KindFloat, Min: model.Bound(0), Max: model.Bound(1), Default: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestKindUnresolved(t *testing.T) {
	doc := mkdoc("Lamp", "l1", map[string]any{"brightness": 0.5})
	mem := vet.MemKinds{"Lamp/v1": lampSchema(t)}

	// Pinned version absent from the repository.
	missing := setup(doc)
	missing.Kinds["Lamp"] = "v9"
	exactIDs(t, runSetup(missing, mem), "V006")

	// Committed doc does not decode as a schema.
	garbage := setup(doc)
	exactIDs(t, runSetup(garbage, vet.MemKinds{"Lamp/v1": []byte("42\n")}), "V006")

	// Committed doc declares a different type: mis-tagged.
	wrongType, err := model.EncodeSchema(&model.Schema{Type: "Fan", Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	exactIDs(t, runSetup(setup(doc), vet.MemKinds{"Lamp/v1": wrongType}), "V006")

	// Resolvable: clean. Without a kind source the rule stays quiet.
	exactIDs(t, runSetup(setup(doc), mem))
	exactIDs(t, runSetup(missing, nil))
}

func TestSchemaMismatch(t *testing.T) {
	mem := vet.MemKinds{"Lamp/v1": lampSchema(t)}

	outOfRange := setup(mkdoc("Lamp", "l1", map[string]any{"brightness": 7.5}))
	exactIDs(t, runSetup(outOfRange, mem), "V007")

	unknownField := setup(mkdoc("Lamp", "l1", map[string]any{"brightness": 0.5, "wattage": 60}))
	exactIDs(t, runSetup(unknownField, mem), "V007")

	exactIDs(t, runSetup(setup(mkdoc("Lamp", "l1", map[string]any{"brightness": 0.5})), mem))
}

func TestBadTopic(t *testing.T) {
	wildInName := setup(mkdoc("Lamp", "l1", map[string]any{"meta.topic": "home/+/lamp"}))
	exactIDs(t, runSetup(wildInName, nil), "V008")

	badFilter := setup(mkdoc("Lamp", "l1", map[string]any{"meta.subscribe": []any{"a/#/b"}}))
	exactIDs(t, runSetup(badFilter, nil), "V008")

	notAString := setup(mkdoc("Lamp", "l1", map[string]any{"meta.subscribe": []any{int64(3)}}))
	exactIDs(t, runSetup(notAString, nil), "V008")

	good := setup(mkdoc("Lamp", "l1", map[string]any{
		"meta.topic":     "home/lamp",
		"meta.subscribe": []any{"home/#"},
	}))
	exactIDs(t, runSetup(good, nil))
}

func TestTopicCollision(t *testing.T) {
	bad := setup(
		mkdoc("Lamp", "l1", map[string]any{"meta.topic": "shared/status"}),
		mkdoc("Fan", "f1", map[string]any{"meta.topic": "shared/status", "meta.attach": []any{"l1"}}),
	)
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V009")
	if !strings.Contains(vet.Text(diags), `"l1"`) {
		t.Errorf("collision does not name the first claimant: %s", vet.Text(diags))
	}

	// Default topics derive from unique model names: no collision.
	good := setup(
		mkdoc("Lamp", "l1", nil),
		mkdoc("Fan", "f1", map[string]any{"meta.attach": []any{"l1"}}),
	)
	exactIDs(t, runSetup(good, nil))
}

func TestSubscriptionOverlap(t *testing.T) {
	bad := setup(
		mkdoc("Lamp", "l1", map[string]any{"meta.subscribe": []any{"home/+/status"}}),
		mkdoc("Fan", "f1", map[string]any{"meta.subscribe": []any{"home/kitchen/#"}, "meta.attach": []any{"l1"}}),
	)
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V010")
	if vet.HasErrors(diags) {
		t.Error("overlap should be a warning, not an error")
	}

	// Disjoint filters, and overlapping filters within ONE model, are
	// both fine.
	good := setup(
		mkdoc("Lamp", "l1", map[string]any{"meta.subscribe": []any{"home/a", "home/a/#"}}),
		mkdoc("Fan", "f1", map[string]any{"meta.subscribe": []any{"garden/b"}, "meta.attach": []any{"l1"}}),
	)
	exactIDs(t, runSetup(good, nil))
}

func TestConfigBounds(t *testing.T) {
	for _, c := range []struct {
		name   string
		config map[string]any
	}{
		{"zero interval", map[string]any{"interval_ms": int64(0)}},
		{"negative delay", map[string]any{"actuation_delay_ms": int64(-5)}},
		{"probability above 1", map[string]any{"trigger_prob": 1.5}},
		{"inverted range", map[string]any{"temp_min": 30.0, "temp_max": 20.0}},
	} {
		extra := map[string]any{}
		for k, v := range c.config {
			extra["meta."+k] = v
		}
		diags := runSetup(setup(mkdoc("Occupancy", "o1", extra)), nil)
		exactIDs(t, diags, "V011")
		if len(diags) == 0 {
			t.Errorf("%s: no diagnostics", c.name)
		}
	}

	// Bounds declared by a kind library.
	vet.DeclareConfigBounds("BoundsTestKind", "gain", 0, 10)
	over := setup(mkdoc("BoundsTestKind", "b1", map[string]any{"meta.gain": 99.0}))
	exactIDs(t, runSetup(over, nil), "V011")
	within := setup(mkdoc("BoundsTestKind", "b1", map[string]any{"meta.gain": 9.0}))
	exactIDs(t, runSetup(within, nil))

	good := setup(mkdoc("Occupancy", "o1", map[string]any{
		"meta.interval_ms":  int64(20),
		"meta.trigger_prob": 0.5,
		"meta.seed":         int64(9), // V014 demands a seed beside a fractional prob
		"meta.temp_min":     18.0,
		"meta.temp_max":     26.0,
	}))
	exactIDs(t, runSetup(good, nil))
}

func TestBadMeta(t *testing.T) {
	noName := model.Doc{"meta": map[string]any{"type": "Lamp"}}
	bad := &iac.Setup{Name: "t", Kinds: map[string]string{"Lamp": "v1"}, Models: []model.Doc{noName}}
	exactIDs(t, runSetup(bad, nil), "V012")

	dup := setup(
		mkdoc("Lamp", "same", nil),
		mkdoc("Fan", "same", nil),
	)
	diags := runSetup(dup, nil)
	if !ruleIDs(diags)["V012"] {
		t.Errorf("duplicate name not reported: %s", vet.Text(diags))
	}
}

// The kitchen-sink regression: one deliberately broken setup, one
// exact expected rule-ID set.
func TestBrokenSetupYieldsExactRuleSet(t *testing.T) {
	mem := vet.MemKinds{"Lamp/v1": lampSchema(t)}
	s := &iac.Setup{
		Name:  "broken",
		Kinds: map[string]string{"Lamp": "v1", "Ghost": "v1"},
		Models: []model.Doc{
			// V001 (dangling) + V002 (duplicate child).
			mkdoc("Lamp", "l1", map[string]any{
				"brightness":  0.5,
				"meta.attach": []any{"nope", "l2", "l2"},
			}),
			// V007 (brightness out of range) + V008 (wildcard topic).
			mkdoc("Lamp", "l2", map[string]any{
				"brightness": 9.9,
				"meta.topic": "a/+/b",
			}),
			// V005 (no kind ref for type Stray) + V011 (bad probability).
			mkdoc("Stray", "s1", map[string]any{"meta.smoke_prob": 2.0}),
		},
	}
	diags := runSetup(s, mem)
	// V005 also flags the unused Ghost reference; V006 flags Ghost/v1
	// missing from the kind source; V004 flags the unattached stray.
	exactIDs(t, diags, "V001", "V002", "V004", "V005", "V006", "V007", "V008", "V011")
}

func TestChaosTarget(t *testing.T) {
	// Targets resolving against model names, default publish topics,
	// and subscription filters are all accepted.
	good := setup(
		mkdoc("Lamp", "l1", nil),
		mkdoc("Fan", "f1", map[string]any{"meta.subscribe": []any{"ctl/fan/#"}, "meta.attach": []any{"l1"}}),
	)
	good.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{Fault: chaos.FaultDropout, Digi: "l1"},
		{Fault: chaos.FaultDrop, Topic: "digibox/l1/status", Rate: 0.5},
		{Fault: chaos.FaultDrop, Topic: "ctl/fan/speed", Rate: 0.5},
	}}
	exactIDs(t, runSetup(good, nil))

	// Dangling digi, unmatched topic, and invalid filter syntax each
	// get their own diagnostic.
	bad := setup(mkdoc("Lamp", "l1", nil))
	bad.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{Fault: chaos.FaultStuck, Digi: "ghost"},
		{Fault: chaos.FaultDrop, Topic: "nowhere/#", Rate: 0.5},
		{Fault: chaos.FaultDrop, Topic: "bad/+wild", Rate: 1},
	}}
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V013")
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3:\n%s", len(diags), vet.Text(diags))
	}
	if !strings.Contains(vet.Text(diags), `"ghost"`) {
		t.Errorf("dangling digi not named: %s", vet.Text(diags))
	}

	// A structurally invalid plan is reported through the same rule.
	malformed := setup(mkdoc("Lamp", "l1", nil))
	malformed.Chaos = &chaos.Plan{Name: "p", Events: []chaos.Event{
		{Fault: chaos.FaultDisconnect}, // missing client
	}}
	exactIDs(t, runSetup(malformed, nil), "V013")

	// No plan: nothing to check.
	exactIDs(t, runSetup(setup(mkdoc("Lamp", "l1", nil)), nil))
}

func TestUnseededNondeterminism(t *testing.T) {
	// A fractional probability without meta.seed is rejected.
	unseeded := setup(mkdoc("Occupancy", "o1", map[string]any{"meta.trigger_prob": 0.3}))
	diags := runSetup(unseeded, nil)
	exactIDs(t, diags, "V014")
	if !strings.Contains(vet.Text(diags), "trigger_prob") {
		t.Errorf("diagnostic does not name the config key: %s", vet.Text(diags))
	}

	// An explicit seed clears it; so do the deterministic edges 0 and 1.
	for _, cfg := range []map[string]any{
		{"meta.trigger_prob": 0.3, "meta.seed": int64(4)},
		{"meta.trigger_prob": 0.0},
		{"meta.trigger_prob": 1.0},
	} {
		exactIDs(t, runSetup(setup(mkdoc("Occupancy", "o1", cfg)), nil))
	}

	// A chaos plan with rate- or jitter-based faults needs a plan seed.
	rnd := setup(mkdoc("Lamp", "l1", nil))
	rnd.Chaos = &chaos.Plan{Name: "p", Events: []chaos.Event{
		{Fault: chaos.FaultDrop, Topic: "digibox/l1/status", Rate: 0.5},
	}}
	exactIDs(t, runSetup(rnd, nil), "V014")
	rnd.Chaos.Seed = 11
	exactIDs(t, runSetup(rnd, nil))

	jitter := setup(mkdoc("Lamp", "l1", nil))
	jitter.Chaos = &chaos.Plan{Name: "p", Events: []chaos.Event{
		{Fault: chaos.FaultDelay, Topic: "digibox/l1/status",
			Delay: 5 * time.Millisecond, Jitter: 5 * time.Millisecond},
	}}
	exactIDs(t, runSetup(jitter, nil), "V014")

	// Deterministic faults need no seed: rate 1 always fires.
	det := setup(mkdoc("Lamp", "l1", nil))
	det.Chaos = &chaos.Plan{Name: "p", Events: []chaos.Event{
		{Fault: chaos.FaultDrop, Topic: "digibox/l1/status", Rate: 1},
		{Fault: chaos.FaultDropout, Digi: "l1"},
	}}
	exactIDs(t, runSetup(det, nil))
}

func TestSwarmShards(t *testing.T) {
	fleet := func(replicas int64) *iac.Setup {
		return setup(mkdoc("Occupancy", "fleet", map[string]any{
			"meta.replicas": replicas,
		}))
	}

	// 1500 devices, no swarm section: warn with the shard hint.
	big := fleet(1500)
	diags := runSetup(big, nil)
	exactIDs(t, diags, "V015")
	if vet.HasErrors(diags) {
		t.Error("underprovisioned swarm should be a warning, not an error")
	}
	if !strings.Contains(diags[0].Message, "shards: 2") {
		t.Errorf("hint missing required shard count: %s", diags[0].Message)
	}

	// Declaring too few shards still warns; enough shards is clean.
	under := fleet(2500)
	under.Swarm = &iac.SwarmConfig{Shards: 2}
	exactIDs(t, runSetup(under, nil), "V015")

	enough := fleet(2500)
	enough.Swarm = &iac.SwarmConfig{Shards: 3}
	exactIDs(t, runSetup(enough, nil))

	// At or under the guidance no section is needed, and scenes do not
	// count as devices.
	exactIDs(t, runSetup(fleet(1000), nil))
	scenes := setup(
		mkdoc("Room", "room", map[string]any{
			"meta.attach":   []any{"o1"},
			"meta.replicas": int64(5000), // a scene's replicas are not devices
		}),
		mkdoc("Occupancy", "o1", nil),
	)
	exactIDs(t, runSetup(scenes, nil))
}

func TestSwarmUnsurvivable(t *testing.T) {
	base := func() *iac.Setup {
		s := setup(mkdoc("Lamp", "l1", nil))
		s.Swarm = &iac.SwarmConfig{Shards: 2}
		return s
	}

	// Staggered kills whose for_ms windows never overlap keep a
	// survivor at every instant: clean.
	ok := base()
	ok.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 0, For: time.Second},
		{At: 3 * time.Second, Fault: chaos.FaultShardKill, Shard: 1, For: time.Second},
	}}
	exactIDs(t, runSetup(ok, nil))

	// Unbounded kills of both shards leave no shard for failover to
	// re-anchor onto: error with the exact fix.
	bad := base()
	bad.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 0},
		{At: 2 * time.Second, Fault: chaos.FaultShardKill, Shard: 1},
	}}
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V016")
	if !vet.HasErrors(diags) {
		t.Error("unsurvivable plan should be an error")
	}
	if !strings.Contains(diags[0].Message, "swarm.shards to 3") {
		t.Errorf("hint missing the shard fix: %s", diags[0].Message)
	}

	// A for_ms revive landing exactly on the second kill's offset
	// applies first — the plan gets the benefit of the doubt.
	race := base()
	race.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 0, For: time.Second},
		{At: 2 * time.Second, Fault: chaos.FaultShardKill, Shard: 1},
	}}
	exactIDs(t, runSetup(race, nil))

	// An explicit shard-revive restores survivability the same way.
	rev := base()
	rev.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 0},
		{At: 2 * time.Second, Fault: chaos.FaultShardRevive, Shard: 0},
		{At: 3 * time.Second, Fault: chaos.FaultShardKill, Shard: 1},
	}}
	exactIDs(t, runSetup(rev, nil))

	// A shard index the setup does not provision would silently hit
	// nothing.
	oob := base()
	oob.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 5},
	}}
	diags = runSetup(oob, nil)
	exactIDs(t, diags, "V016")
	if !strings.Contains(diags[0].Message, "valid indices 0..1") {
		t.Errorf("out-of-range message missing the valid range: %s", diags[0].Message)
	}

	// Shard faults without any swarm section: the fix names a shard
	// count that leaves a survivor (max index 1 -> shards: 3).
	nosec := setup(mkdoc("Lamp", "l1", nil))
	nosec.Chaos = &chaos.Plan{Name: "p", Seed: 1, Events: []chaos.Event{
		{At: time.Second, Fault: chaos.FaultShardKill, Shard: 1},
	}}
	diags = runSetup(nosec, nil)
	exactIDs(t, diags, "V016")
	if !strings.Contains(diags[0].Message, "shards: 3") {
		t.Errorf("hint missing the shard count: %s", diags[0].Message)
	}
}

func TestDashPortCollision(t *testing.T) {
	withCtl := func(listen string, models ...model.Doc) *iac.Setup {
		s := setup(models...)
		s.Ctl = &iac.CtlConfig{Listen: listen}
		return s
	}

	// A device claiming the control API's port: error, and the hint
	// names the next free address so the fix is mechanical.
	bad := withCtl("127.0.0.1:7825",
		mkdoc("Gateway", "gw", map[string]any{"meta.port": int64(7825)}))
	diags := runSetup(bad, nil)
	exactIDs(t, diags, "V017")
	if !strings.Contains(diags[0].Message, "127.0.0.1:7826") {
		t.Errorf("hint missing the next free address: %s", diags[0].Message)
	}

	// _port-suffixed config keys count as claims too.
	suffix := withCtl("127.0.0.1:8080",
		mkdoc("Gateway", "gw", map[string]any{"meta.listen_port": int64(8080)}))
	exactIDs(t, runSetup(suffix, nil), "V017")

	// Distinct ports coexist; a setup with no ctl section is exempt.
	ok := withCtl("127.0.0.1:7825",
		mkdoc("Gateway", "gw", map[string]any{"meta.port": int64(8080)}))
	exactIDs(t, runSetup(ok, nil))
	exactIDs(t, runSetup(setup(mkdoc("Lamp", "l1", nil)), nil))

	// A listen address that is not host:port never reaches deploy.
	exactIDs(t, runSetup(withCtl("7825", mkdoc("Lamp", "l1", nil)), nil), "V017")
	exactIDs(t, runSetup(withCtl("127.0.0.1:http", mkdoc("Lamp", "l1", nil)), nil), "V017")
}

// popProfile builds a satisfiable single-population profile for kind.
func popProfile(kind string) *profile.Profile {
	return &profile.Profile{
		Name: "p",
		Seed: 1,
		Populations: []profile.Population{
			{Kind: kind, Count: 2,
				Cadence: profile.Cadence{Dist: profile.DistFixed, Mean: 100 * time.Millisecond}},
		},
	}
}

func TestProfileUnsatisfiable(t *testing.T) {
	// A satisfiable profile whose population kind matches a pinned kind
	// reference (case-insensitively) is clean.
	good := setup(mkdoc("Thermostat", "t1", nil))
	good.Profile = popProfile("thermostat")
	exactIDs(t, runSetup(good, nil))

	// Zero cadence mean: the population can never fire.
	dead := setup(mkdoc("Thermostat", "t1", nil))
	dead.Profile = popProfile("thermostat")
	dead.Profile.Populations[0].Cadence.Mean = 0
	diags := runSetup(dead, nil)
	exactIDs(t, diags, "V018")
	if !strings.Contains(vet.Text(diags), "fix:") {
		t.Errorf("V018 diagnostic missing fix-it hint:\n%s", vet.Text(diags))
	}

	// Empty diurnal window.
	night := setup(mkdoc("Thermostat", "t1", nil))
	night.Profile = popProfile("thermostat")
	night.Profile.Populations[0].Cadence.Diurnal = &profile.Diurnal{Start: 9, End: 9}
	exactIDs(t, runSetup(night, nil), "V018")

	// A population kind with no kind reference in the header.
	ghost := setup(mkdoc("Thermostat", "t1", nil))
	ghost.Profile = popProfile("camera")
	diags = runSetup(ghost, nil)
	exactIDs(t, diags, "V018")
	if !strings.Contains(vet.Text(diags), "kinds entry") {
		t.Errorf("unknown-kind diagnostic missing fix-it hint:\n%s", vet.Text(diags))
	}

	// A profile that fails structural validation is reported, not
	// silently skipped.
	broken := setup(mkdoc("Thermostat", "t1", nil))
	broken.Profile = popProfile("thermostat")
	broken.Profile.Populations[0].Cadence.Dist = "weibull"
	exactIDs(t, runSetup(broken, nil), "V018")

	// A setup with no kind references skips the kind check (standalone
	// profiles vet this way).
	free := &iac.Setup{Name: "t", Profile: popProfile("anything")}
	exactIDs(t, runSetup(free, nil))
}

func TestRunProfileData(t *testing.T) {
	if diags := vet.RunProfileData("p.yaml", []byte(": not yaml")); !ruleIDs(diags)["V000"] {
		t.Fatalf("garbage profile = %v, want V000", diags)
	}

	goodData, err := profile.Marshal(popProfile("thermostat"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet.RunProfileData("p.yaml", goodData); len(diags) != 0 {
		t.Fatalf("clean profile = %v, want none", diags)
	}

	bad := popProfile("thermostat")
	bad.Populations[0].Cadence.Mean = 0
	badData, err := profile.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	diags := vet.RunProfileData("p.yaml", badData)
	exactIDs(t, diags, "V018")
	if diags[0].File != "p.yaml" {
		t.Errorf("file = %q, want p.yaml", diags[0].File)
	}
}
