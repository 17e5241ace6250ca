package model

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func storeWithLamp(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.Create(lampDoc()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreCreateGet(t *testing.T) {
	s := storeWithLamp(t)
	d, gen, ok := s.Get("L1")
	if !ok || gen == 0 {
		t.Fatalf("Get: ok=%v gen=%d", ok, gen)
	}
	if d.Name() != "L1" {
		t.Errorf("name = %q", d.Name())
	}
	// Returned snapshot must be independent.
	d.Set("power.status", "off")
	d2, _, _ := s.Get("L1")
	if v, _ := d2.Get("power.status"); v != "on" {
		t.Error("snapshot mutation leaked into store")
	}
}

func TestStoreCreateDuplicate(t *testing.T) {
	s := storeWithLamp(t)
	if err := s.Create(lampDoc()); err == nil {
		t.Error("duplicate create should fail")
	}
}

func TestStoreCreateRequiresMeta(t *testing.T) {
	s := NewStore()
	if err := s.Create(Doc{"x": int64(1)}); err == nil {
		t.Error("create without meta should fail")
	}
}

func TestStoreApplyPublishesDiff(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()

	up, err := s.Apply("L1", func(d Doc) error {
		d.Set("power.status", "off")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 1 || up.Changes[0].Path != "power.status" {
		t.Fatalf("changes = %v", up.Changes)
	}
	select {
	case got := <-w.C:
		if got.Gen != up.Gen || len(got.Changes) != 1 {
			t.Errorf("watch update = %+v", got)
		}
		if v, _ := got.Doc.Get("power.status"); v != "off" {
			t.Errorf("watch snapshot stale: %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no watch update")
	}
}

func TestStoreApplyNoopDoesNotNotify(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()
	up, err := s.Apply("L1", func(d Doc) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 0 {
		t.Errorf("noop produced changes %v", up.Changes)
	}
	select {
	case u := <-w.C:
		t.Errorf("unexpected update %+v", u)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestStoreApplyErrorRollsBack(t *testing.T) {
	s := storeWithLamp(t)
	_, err := s.Apply("L1", func(d Doc) error {
		d.Set("power.status", "off")
		return fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("want error")
	}
	d, _, _ := s.Get("L1")
	if v, _ := d.Get("power.status"); v != "on" {
		t.Error("failed apply mutated the store")
	}
}

func TestStoreApplyMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Apply("ghost", func(Doc) error { return nil }); err == nil {
		t.Error("apply on missing model should fail")
	}
}

func TestStorePatch(t *testing.T) {
	s := storeWithLamp(t)
	up, err := s.Patch("L1", map[string]any{"power": map[string]any{"intent": "off"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 1 || up.Changes[0].Path != "power.intent" {
		t.Errorf("patch changes = %v", up.Changes)
	}
}

func TestStoreDelete(t *testing.T) {
	s := storeWithLamp(t)
	w := s.Watch(nil)
	defer w.Close()
	if !s.Delete("L1") {
		t.Fatal("delete failed")
	}
	if s.Delete("L1") {
		t.Error("second delete should return false")
	}
	if s.Has("L1") {
		t.Error("Has after delete")
	}
	select {
	case u := <-w.C:
		if !u.Deleted {
			t.Errorf("want deletion update, got %+v", u)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no deletion update")
	}
}

func TestStoreListAndSnapshot(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"b", "a", "c"} {
		d := Doc{}
		d.SetMeta(Meta{Type: "Lamp", Name: n})
		if err := s.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestWatcherOrderingUnderConcurrency(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				_, err := s.Apply("L1", func(d Doc) error {
					n, _ := d.GetInt("counter")
					d.Set("counter", n+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	d, _, _ := s.Get("L1")
	n, _ := d.GetInt("counter")
	if n != writers*each {
		t.Errorf("counter = %d, want %d (lost updates)", n, writers*each)
	}

	// Every update must arrive, in strictly increasing generation order.
	var lastGen uint64
	for i := 0; i < writers*each; i++ {
		select {
		case u := <-w.C:
			if u.Gen <= lastGen {
				t.Fatalf("generation went backwards: %d after %d", u.Gen, lastGen)
			}
			lastGen = u.Gen
		case <-time.After(5 * time.Second):
			t.Fatalf("missing update %d", i)
		}
	}
}

func TestWatcherFilter(t *testing.T) {
	s := NewStore()
	a := Doc{}
	a.SetMeta(Meta{Type: "Lamp", Name: "A"})
	b := Doc{}
	b.SetMeta(Meta{Type: "Fan", Name: "B"})
	w := s.Watch(func(u Update) bool { return u.Type == "Fan" })
	defer w.Close()
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(b); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-w.C:
		if u.Name != "B" {
			t.Errorf("filtered watch got %q", u.Name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update")
	}
}

func TestWatcherCloseUnblocksPump(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	// Queue several updates without reading, then close.
	for i := 0; i < 10; i++ {
		if _, err := s.Apply("L1", func(d Doc) error { d.Set("n", i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Channel must eventually close even though we never consumed.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-w.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watcher channel never closed")
		}
	}
}

func TestWatcherDoubleCloseSafe(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	w.Close()
	w.Close() // must not panic
}

// Property: for any random sequence of Apply mutations, replaying the
// watch stream's diffs over the initial snapshot reproduces the final
// document. This is the invariant trace replay (§3.5) depends on.
func TestQuickWatchStreamReconstructsState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		initial := Doc{}
		initial.SetMeta(Meta{Type: "Thing", Name: "T"})
		w := s.Watch(nil)
		defer w.Close()
		if err := s.Create(initial); err != nil {
			t.Log(err)
			return false
		}
		paths := []string{"a", "a.b", "c", "d.e.f", "g"}
		n := 5 + r.Intn(20)
		for i := 0; i < n; i++ {
			p := paths[r.Intn(len(paths))]
			if r.Intn(5) == 0 {
				s.Apply("T", func(d Doc) error { d.Delete(p); return nil })
			} else {
				val := r.Intn(10)
				s.Apply("T", func(d Doc) error { d.Set(p, val); return nil })
			}
		}
		final, _, _ := s.Get("T")

		rebuilt := Doc{}
		timeout := time.After(5 * time.Second)
		var seen uint64
		for !Equal(rebuilt, final) {
			select {
			case u := <-w.C:
				seen = u.Gen
				rebuilt.ApplyChanges(u.Changes)
			case <-timeout:
				t.Logf("rebuilt never converged (last gen %d):\n%v\nvs\n%v", seen, rebuilt, final)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A delivered update (and its diff) must not stay reachable from the
// watcher's queue: once the consumer drops it, the collector frees it
// while the watch is still open.
func TestWatcherPumpReleasesDeliveredUpdates(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Patch("L1", map[string]any{"n": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var freed atomic.Int32
	for i := 0; i < 3; i++ {
		u := <-w.C
		runtime.SetFinalizer(&u.Changes[0], func(*Change) { freed.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 delivered updates collected", freed.Load())
		}
		runtime.GC()
	}
}

func TestViewSharesTheCommittedDocument(t *testing.T) {
	s := storeWithLamp(t)
	v1, gen1, ok := s.View("L1")
	if !ok || gen1 == 0 {
		t.Fatalf("View: ok=%v gen=%d", ok, gen1)
	}
	frozen := v1.DeepCopy()
	if _, err := s.Patch("L1", map[string]any{"power": map[string]any{"status": "off"}}); err != nil {
		t.Fatal(err)
	}
	if !Equal(v1, frozen) {
		t.Error("a commit changed a document an earlier View returned")
	}
	v2, gen2, _ := s.View("L1")
	if gen2 <= gen1 || v2.GetString("power.status") != "off" {
		t.Errorf("View after the commit: gen %d → %d, status %q", gen1, gen2, v2.GetString("power.status"))
	}
	if _, _, ok := s.View("nope"); ok {
		t.Error("View of a missing model reports ok")
	}
}
