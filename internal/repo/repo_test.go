package repo

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"testing/quick"
)

func open(t *testing.T) *Repo {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPutGetObject(t *testing.T) {
	r := open(t)
	data := []byte("meta:\n  type: Lamp\n")
	hash, err := r.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 64 {
		t.Errorf("hash = %q", hash)
	}
	// Idempotent.
	hash2, err := r.PutObject(data)
	if err != nil || hash2 != hash {
		t.Errorf("second put: %q %v", hash2, err)
	}
	back, err := r.GetObject(hash)
	if err != nil || !bytes.Equal(back, data) {
		t.Errorf("GetObject: %q %v", back, err)
	}
	if _, err := r.GetObject("deadbeef" + hash[8:]); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object err = %v", err)
	}
}

func TestGetObjectDetectsCorruption(t *testing.T) {
	r := open(t)
	hash, _ := r.PutObject([]byte("original"))
	if err := os.WriteFile(r.objectPath(hash), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetObject(hash); err == nil {
		t.Error("corrupt object read back without error")
	}
}

func TestCommitAssignsVersions(t *testing.T) {
	r := open(t)
	v1, err := r.Commit(Kinds, "Lamp", []byte("schema v1"))
	if err != nil || v1 != "v1" {
		t.Fatalf("v1 = %q, %v", v1, err)
	}
	v2, err := r.Commit(Kinds, "Lamp", []byte("schema v2"))
	if err != nil || v2 != "v2" {
		t.Fatalf("v2 = %q, %v", v2, err)
	}
	// Unchanged content: no new version.
	again, err := r.Commit(Kinds, "Lamp", []byte("schema v2"))
	if err != nil || again != "v2" {
		t.Fatalf("unchanged commit = %q, %v", again, err)
	}
	vs, err := r.Versions(Kinds, "Lamp")
	if err != nil || !reflect.DeepEqual(vs, []string{"v1", "v2"}) {
		t.Fatalf("versions = %v, %v", vs, err)
	}
	latest, err := r.Latest(Kinds, "Lamp")
	if err != nil || latest != "v2" {
		t.Fatalf("latest = %q, %v", latest, err)
	}
}

func TestVersionOrderingIsNumeric(t *testing.T) {
	r := open(t)
	for i := 0; i < 12; i++ {
		if _, err := r.Commit(Traces, "big", []byte(fmt.Sprintf("content %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vs, _ := r.Versions(Traces, "big")
	if vs[len(vs)-1] != "v12" || vs[1] != "v2" {
		t.Errorf("versions = %v (lexicographic ordering bug: v10 < v2?)", vs)
	}
}

func TestGetByVersionAndLatest(t *testing.T) {
	r := open(t)
	r.Commit(Kinds, "Fan", []byte("one"))
	r.Commit(Kinds, "Fan", []byte("two"))
	if data, err := r.Get(Kinds, "Fan", "v1"); err != nil || string(data) != "one" {
		t.Errorf("v1 = %q, %v", data, err)
	}
	if data, err := r.Get(Kinds, "Fan", ""); err != nil || string(data) != "two" {
		t.Errorf("latest = %q, %v", data, err)
	}
	if _, err := r.Get(Kinds, "Fan", "v9"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version err = %v", err)
	}
	if _, err := r.Get(Kinds, "Ghost", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing name err = %v", err)
	}
}

func TestTagImmutability(t *testing.T) {
	r := open(t)
	h1, _ := r.PutObject([]byte("a"))
	h2, _ := r.PutObject([]byte("b"))
	if err := r.Tag(Kinds, "X", "v1", h1); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(Kinds, "X", "v1", h1); err != nil {
		t.Errorf("idempotent re-tag failed: %v", err)
	}
	if err := r.Tag(Kinds, "X", "v1", h2); err == nil {
		t.Error("version rewritten with different content")
	}
}

func TestNameValidation(t *testing.T) {
	r := open(t)
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if _, err := r.Commit(Kinds, bad, []byte("x")); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"Lamp", "supply-chain", "room_2", "A.B"} {
		if _, err := r.Commit(Kinds, good, []byte("x")); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
}

func TestPushPull(t *testing.T) {
	local := open(t)
	remote := open(t)
	other := open(t)

	setupV1 := []byte("setup: smartbuilding\nrev: one\n")
	setupV2 := []byte("setup: smartbuilding\nrev: two\n")
	local.Commit(Setups, "smartbuilding", setupV1)
	local.Commit(Setups, "smartbuilding", setupV2)
	if err := local.Push(remote, Setups, "smartbuilding"); err != nil {
		t.Fatal(err)
	}
	// A different developer pulls and sees both versions.
	if err := other.Pull(remote, Setups, "smartbuilding"); err != nil {
		t.Fatal(err)
	}
	data, err := other.Get(Setups, "smartbuilding", "v2")
	if err != nil || !bytes.Equal(data, setupV2) {
		t.Fatalf("pulled = %q, %v", data, err)
	}
	vs, _ := other.Versions(Setups, "smartbuilding")
	if !reflect.DeepEqual(vs, []string{"v1", "v2"}) {
		t.Errorf("pulled versions = %v", vs)
	}
	// Re-push is idempotent.
	if err := local.Push(remote, Setups, "smartbuilding"); err != nil {
		t.Errorf("re-push: %v", err)
	}
	// Push of missing name fails.
	if err := local.Push(remote, Setups, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("push missing = %v", err)
	}
}

func TestPushConflictDetected(t *testing.T) {
	a := open(t)
	b := open(t)
	remote := open(t)
	a.Commit(Kinds, "Lamp", []byte("a's lamp"))
	b.Commit(Kinds, "Lamp", []byte("b's lamp"))
	if err := a.Push(remote, Kinds, "Lamp"); err != nil {
		t.Fatal(err)
	}
	if err := b.Push(remote, Kinds, "Lamp"); err == nil {
		t.Error("conflicting v1 push accepted")
	}
}

func TestList(t *testing.T) {
	r := open(t)
	r.Commit(Kinds, "Lamp", []byte("x"))
	r.Commit(Kinds, "Fan", []byte("y"))
	r.Commit(Setups, "home", []byte("setup: home\n"))
	kinds, err := r.List(Kinds)
	if err != nil || !reflect.DeepEqual(kinds, []string{"Fan", "Lamp"}) {
		t.Errorf("kinds = %v, %v", kinds, err)
	}
	setups, _ := r.List(Setups)
	if !reflect.DeepEqual(setups, []string{"home"}) {
		t.Errorf("setups = %v", setups)
	}
}

func TestCommitVetsSetups(t *testing.T) {
	r := open(t)
	// A setup whose single model attaches a child that does not exist
	// fails vet with an error-severity diagnostic (V001).
	bad := []byte(`setup: broken
---
meta:
  type: Room
  version: v1
  name: room
  attach: [ghost]
`)
	if _, err := r.Commit(Setups, "broken", bad); err == nil {
		t.Fatal("vet-failing setup committed")
	} else if !errors.Is(err, ErrVetFailed) {
		t.Errorf("err = %v, want ErrVetFailed", err)
	}
	// ForceCommit bypasses the gate.
	if v, err := r.ForceCommit(Setups, "broken", bad); err != nil || v != "v1" {
		t.Errorf("ForceCommit = %q, %v", v, err)
	}
	// A clean setup (with its kind committed so the reference resolves)
	// commits normally.
	schema, err := model.EncodeSchema(&model.Schema{Type: "Room", Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(Kinds, "Room", schema); err != nil {
		t.Fatal(err)
	}
	good := []byte(`setup: fine
kinds:
  Room: v1
---
meta:
  type: Room
  version: v1
  name: room
`)
	if v, err := r.Commit(Setups, "fine", good); err != nil || v != "v1" {
		t.Errorf("clean Commit = %q, %v", v, err)
	}
	// Non-setup classes are never vetted.
	if _, err := r.Commit(Kinds, "garbage", []byte("not yaml at all: [")); err != nil {
		t.Errorf("kind commit vetted: %v", err)
	}
}

func TestOpenIsReentrant(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1.Commit(Kinds, "Lamp", []byte("x"))
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Get(Kinds, "Lamp", ""); err != nil {
		t.Errorf("reopened repo lost data: %v", err)
	}
}

// Property: any sequence of commits round-trips — the i-th distinct
// content is retrievable at version v(i).
func TestQuickCommitRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := open(t)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		var contents [][]byte
		for i := 0; i < n; i++ {
			// Ensure distinct content per commit.
			c := []byte(fmt.Sprintf("content-%d-%d", seed, i))
			contents = append(contents, c)
			v, err := r.Commit(Traces, "t", c)
			if err != nil {
				t.Log(err)
				return false
			}
			if v != fmt.Sprintf("v%d", i+1) {
				t.Logf("version = %s at i=%d", v, i)
				return false
			}
		}
		for i, c := range contents {
			got, err := r.Get(Traces, "t", fmt.Sprintf("v%d", i+1))
			if err != nil || !bytes.Equal(got, c) {
				t.Logf("get v%d: %q %v", i+1, got, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPathSharding(t *testing.T) {
	r := open(t)
	hash, _ := r.PutObject([]byte("shard me"))
	want := filepath.Join(r.dir, "objects", hash[:2], hash)
	if r.objectPath(hash) != want {
		t.Errorf("path = %q", r.objectPath(hash))
	}
}

func TestCommitVetsProfiles(t *testing.T) {
	r := open(t)
	// A profile with a zero cadence rate is unsatisfiable (V018) and
	// refused by the pre-commit gate.
	bad := []byte(`profile: deadair
seed: 1
populations:
  - kind: thermostat
    count: 2
    cadence:
      dist: fixed
      mean_ms: 0
`)
	if _, err := r.Commit(Profiles, "deadair", bad); err == nil {
		t.Fatal("unsatisfiable profile committed")
	} else if !errors.Is(err, ErrVetFailed) {
		t.Errorf("err = %v, want ErrVetFailed", err)
	}
	// ForceCommit bypasses the gate.
	if v, err := r.ForceCommit(Profiles, "deadair", bad); err != nil || v != "v1" {
		t.Errorf("ForceCommit = %q, %v", v, err)
	}
	// A satisfiable profile commits and round-trips.
	good := []byte(`profile: city
seed: 7
populations:
  - kind: thermostat
    count: 2
    cadence:
      dist: fixed
      mean_ms: 100
`)
	v, err := r.Commit(Profiles, "city", good)
	if err != nil || v != "v1" {
		t.Fatalf("clean Commit = %q, %v", v, err)
	}
	back, err := r.Get(Profiles, "city", "")
	if err != nil || !bytes.Equal(back, good) {
		t.Errorf("Get = %q, %v", back, err)
	}
}
