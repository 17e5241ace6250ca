package core

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/trace"
)

// twoTestbeds builds a developer testbed and a reproducer testbed
// sharing one remote repository (the Fig. 1 rightmost-column flow).
func twoTestbeds(t *testing.T) (dev, other *Testbed) {
	t.Helper()
	remote := t.TempDir()
	dev = newTestbed(t, Options{
		LocalRepoDir:  filepath.Join(t.TempDir(), "dev-repo"),
		RemoteRepoDir: remote,
	})
	other = newTestbed(t, Options{
		LocalRepoDir:  filepath.Join(t.TempDir(), "other-repo"),
		RemoteRepoDir: remote,
	})
	return dev, other
}

func buildMeetingRoom(t *testing.T, tb *Testbed) {
	t.Helper()
	for _, r := range [][2]string{
		{"Occupancy", "O1"}, {"Lamp", "L1"}, {"Room", "MeetingRoom"},
	} {
		cfg := map[string]any{}
		if r[0] == "Room" {
			cfg["managed"] = false
		}
		if err := tb.Run(r[0], r[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Attach("O1", "MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Attach("L1", "MeetingRoom"); err != nil {
		t.Fatal(err)
	}
}

func TestCommitPushPullRecreate(t *testing.T) {
	dev, other := twoTestbeds(t)
	buildMeetingRoom(t, dev)

	ver, err := dev.CommitScene("MeetingRoom")
	if err != nil {
		t.Fatal(err)
	}
	if ver != "v1" {
		t.Errorf("version = %q", ver)
	}
	if err := dev.Push("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := other.Pull("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := other.Recreate("MeetingRoom", ""); err != nil {
		t.Fatal(err)
	}

	// The recreated testbed has the same hierarchy, live.
	names := other.Names()
	if len(names) != 3 {
		t.Fatalf("recreated models = %v", names)
	}
	room, err := other.Check("MeetingRoom")
	if err != nil {
		t.Fatal(err)
	}
	att := room.Attach()
	if len(att) != 2 {
		t.Errorf("attach = %v", att)
	}
	// Ensemble behaviour works on the recreated side.
	if err := other.Edit("MeetingRoom", map[string]any{"human_presence": true}); err != nil {
		t.Fatal(err)
	}
	if err := other.WaitConverged(10*time.Second, func() bool {
		o1, _ := other.Check("O1")
		return o1 != nil && o1.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitSceneIsIdempotent(t *testing.T) {
	dev, _ := twoTestbeds(t)
	buildMeetingRoom(t, dev)
	v1, err := dev.CommitScene("MeetingRoom")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := dev.CommitScene("MeetingRoom")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("unchanged setup re-versioned: %s -> %s", v1, v2)
	}
	// A change (customising the scene) produces a new version.
	if err := dev.Run("Underdesk", "D1", nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.Attach("D1", "MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	v3, err := dev.CommitScene("MeetingRoom")
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v2 {
		t.Error("customised setup did not version")
	}
}

func TestCommitKindVersioning(t *testing.T) {
	dev, _ := twoTestbeds(t)
	v, err := dev.CommitKind("Lamp")
	if err != nil {
		t.Fatal(err)
	}
	if v != "v1" {
		t.Errorf("version = %q", v)
	}
	again, _ := dev.CommitKind("Lamp")
	if again != "v1" {
		t.Errorf("unchanged kind re-versioned: %q", again)
	}
	if _, err := dev.CommitKind("NoSuchType"); err == nil {
		t.Error("unknown type committed")
	}
}

func TestRepoVerbsRequireRepos(t *testing.T) {
	tb := newTestbed(t, Options{})
	if _, err := tb.CommitKind("Lamp"); err == nil {
		t.Error("commit without repo succeeded")
	}
	if err := tb.Push("x"); err == nil {
		t.Error("push without repo succeeded")
	}
	if err := tb.Pull("x"); err == nil {
		t.Error("pull without repo succeeded")
	}
	if err := tb.Recreate("x", ""); err == nil {
		t.Error("recreate without repo succeeded")
	}
}

func TestTraceRecordReplayAcrossTestbeds(t *testing.T) {
	dev, other := twoTestbeds(t)
	buildMeetingRoom(t, dev)

	// Drive the developer-side scene through a presence cycle.
	dev.Edit("MeetingRoom", map[string]any{"human_presence": true})
	if err := dev.WaitConverged(10*time.Second, func() bool {
		o1, _ := dev.Check("O1")
		return o1 != nil && o1.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}
	dev.Edit("MeetingRoom", map[string]any{"human_presence": false})
	if err := dev.WaitConverged(10*time.Second, func() bool {
		o1, _ := dev.Check("O1")
		return o1 != nil && !o1.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}

	// Share setup + trace.
	if _, err := dev.CommitScene("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Push("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.PushTrace("meetingroom-trace"); err != nil {
		t.Fatal(err)
	}

	// Reproducer: pull setup, recreate, pull trace, replay.
	if err := other.Pull("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := other.Recreate("MeetingRoom", ""); err != nil {
		t.Fatal(err)
	}
	recs, err := other.PullTrace("meetingroom-trace", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	if err := other.Replay(context.Background(), recs, 0); err != nil {
		t.Fatal(err)
	}
	// Replay pauses event generation on every traced digi.
	for _, n := range []string{"MeetingRoom", "O1", "L1"} {
		if d, err := other.Check(n); err == nil && d.Managed() {
			t.Errorf("%s still managed after replay", n)
		}
	}
	// The replayed final state matches the recorded final state: the
	// presence cycle ended with an un-triggered sensor.
	if err := other.WaitConverged(10*time.Second, func() bool {
		o1, _ := other.Check("O1")
		return o1 != nil && !o1.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}
	// And the replayed run observed the triggered=true state at some
	// point (the trace's middle), visible in the reproducer's own log
	// (the reconcilers log asynchronously, so poll).
	if err := other.WaitConverged(10*time.Second, func() bool {
		for _, r := range other.Log.Records() {
			if r.Kind == trace.KindAction && r.Name == "O1" {
				if v, ok := r.Sets["triggered"]; ok && v == true {
					return true
				}
			}
		}
		return false
	}); err != nil {
		t.Error("replay never passed through the recorded triggered state")
	}
}

func TestSaveTraceArchive(t *testing.T) {
	tb := newTestbed(t, Options{})
	tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(20)})
	tb.WaitConverged(5*time.Second, func() bool { return tb.Log.Len() > 3 })
	path := filepath.Join(t.TempDir(), "trace.zip")
	if err := tb.SaveTrace(path); err != nil {
		t.Fatal(err)
	}
	ar, err := trace.LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Records) == 0 {
		t.Error("archive empty")
	}
}

func TestRecreateRejectsIncompatibleSchema(t *testing.T) {
	dev, other := twoTestbeds(t)
	buildMeetingRoom(t, dev)
	if _, err := dev.CommitScene("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Push("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	if err := other.Pull("MeetingRoom"); err != nil {
		t.Fatal(err)
	}
	// The reproducer's Lamp kind diverges (field added): recreate must
	// refuse rather than run with an incompatible image.
	lampKind, _ := other.Registry.Get("Lamp")
	mutated := *lampKind
	mutatedSchema := *lampKind.Schema
	fields := map[string]model.FieldSpec{}
	for k, v := range lampKind.Schema.Fields {
		fields[k] = v
	}
	fields["extra"] = model.FieldSpec{Kind: model.KindBool, Default: false}
	mutatedSchema.Fields = fields
	mutated.Schema = &mutatedSchema
	other.Registry.Register(&mutated)
	err := other.Recreate("MeetingRoom", "")
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("err = %v, want incompatible-image error", err)
	}
}

// TestLiveArchiveDigestRoundTrips packages a live testbed's trace after
// a chaos plan over the runtime's MQTT session — fault records carry
// numeric fields, the runtime logs gap and recovery markers — and the
// records read back from the archive hash to the digest of the log
// they were written from.
func TestLiveArchiveDigestRoundTrips(t *testing.T) {
	tb := newTestbed(t, Options{RuntimeMQTT: true})
	if err := tb.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(20), "trigger_prob": 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{
		Name: "archive",
		Seed: 3,
		Events: []chaos.Event{
			{At: 20 * time.Millisecond, Fault: chaos.FaultDisconnect, Client: "digi-runtime"},
			{At: 40 * time.Millisecond, Fault: chaos.FaultDrop, Topic: "digibox/#", Rate: 0.5, For: 100 * time.Millisecond},
			{At: 60 * time.Millisecond, Fault: chaos.FaultStuck, Digi: "L1", For: 80 * time.Millisecond},
		},
	}
	if _, err := tb.RunChaosPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.zip")
	if err := tb.SaveTrace(path); err != nil {
		t.Fatal(err)
	}
	ar, err := trace.LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	// The log has grown since; its first records are the archived ones.
	want, err := trace.Digest(trace.Normalize(tb.Log.Records()[:len(ar.Records)]))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Digest != want {
		t.Fatalf("archive digest %s, live log %s", ar.Digest, want)
	}
	var numeric int
	for _, r := range ar.Records {
		if _, ok := r.Fields["at_ms"].(float64); ok && r.Kind == trace.KindFault {
			numeric++
		}
	}
	if numeric == 0 {
		t.Fatal("no fault record with a numeric field in the archive")
	}
}
